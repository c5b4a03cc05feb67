package serve

// Request wire decoding. /v1/allocate, /v1/feedback and the router's
// signature peek parse bodies with this hand-rolled scanner rather than
// encoding/json's reflection decoder: values go straight into the caller's
// (pooled) slices, and a well-formed body decodes with zero allocations.
//
// The scanner accepts and rejects exactly what json.Decoder with
// DisallowUnknownFields does on one top-level value, with one tightening:
// only whitespace may follow that value. Number tokens are checked against
// the JSON grammar (strconv alone would also take "+1", ".5", "Inf", "0x1p3"
// or "1_0") and then converted by strconv.ParseFloat/ParseInt, as
// encoding/json does, so decoded values are bitwise identical by
// construction. Keys match
// exactly first and then case-folded, nulls leave scalars untouched and turn
// slices nil, and the last of duplicate keys wins — all as encoding/json.
// A string token holding an escape (or invalid UTF-8) is unquoted by
// encoding/json itself; that is rare and off the hot path. The differential
// fuzz targets hold the scanner to encoding/json as the oracle.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Field names, lower-case ASCII, in the order the decoders switch on.
var (
	allocateFields  = []string{"signature", "features", "allocator"}
	feedbackFields  = []string{"signature", "features", "allocation", "importance", "add_to_store", "seq"}
	signatureFields = []string{"signature"}
)

// decodeAllocate decodes an allocate body into req as encoding/json would
// decode it into a zero AllocateRequest, reusing (and overwriting) the
// storage of req's slices.
func decodeAllocate(body []byte, req *AllocateRequest) error {
	req.Signature = recycle(req.Signature)
	req.Features = recycleRows(req.Features)
	req.Allocator = ""
	d := wire{b: body}
	err := d.object(allocateFields, func(k int) (err error) {
		switch k {
		case 0:
			req.Signature, err = array(&d, req.Signature, d.float)
		case 1:
			req.Features, err = array(&d, req.Features, d.floatRow)
		default:
			req.Allocator, err = d.stringValue(req.Allocator)
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.end()
}

// decodeFeedback is decodeAllocate for a feedback body.
func decodeFeedback(body []byte, req *FeedbackRequest) error {
	*req = FeedbackRequest{
		Signature:  recycle(req.Signature),
		Features:   recycleRows(req.Features),
		Allocation: recycle(req.Allocation),
		Importance: recycle(req.Importance),
	}
	d := wire{b: body}
	err := d.object(feedbackFields, func(k int) (err error) {
		switch k {
		case 0:
			req.Signature, err = array(&d, req.Signature, d.float)
		case 1:
			req.Features, err = array(&d, req.Features, d.floatRow)
		case 2:
			req.Allocation, err = array(&d, req.Allocation, d.intElem)
		case 3:
			req.Importance, err = array(&d, req.Importance, d.float)
		case 4:
			req.AddToStore, err = d.boolValue(req.AddToStore)
		default:
			req.Seq, err = d.int64Value(req.Seq)
		}
		return err
	})
	if err != nil {
		return err
	}
	return d.end()
}

// PeekSignature reads only the top-level "signature" of an allocate or
// feedback body, into dst's storage; every other value is skipped
// structurally, without number parsing. Whenever json.Unmarshal of body
// into struct{ Signature []float64 } succeeds with a non-empty signature,
// PeekSignature returns that same slice and ok. Otherwise ok is false, or
// the body is malformed in a way the peek does not look for (trailing data,
// say) — the cluster router then routes it anyway and the shard rejects it.
func PeekSignature(body []byte, dst []float64) (sig []float64, ok bool) {
	sig = recycle(dst)
	d := wire{b: body, skipUnknown: true}
	err := d.object(signatureFields, func(int) (err error) {
		sig, err = array(&d, sig, d.float)
		return err
	})
	return sig, err == nil && len(sig) > 0
}

// recycle empties v for a fresh decode, zeroing its storage so a null array
// element (which leaves the element as it is) cannot surface a value from
// an earlier request.
func recycle[T any](v []T) []T {
	v = v[:cap(v)]
	clear(v)
	return v[:0]
}

// recycleRows is recycle for a matrix, keeping the row storage.
func recycleRows(m [][]float64) [][]float64 {
	m = m[:cap(m)]
	for i := range m {
		m[i] = recycle(m[i])
	}
	return m[:0]
}

// wire is a cursor over one request body.
type wire struct {
	b []byte
	i int
	// skipUnknown skips unknown keys' values instead of rejecting them.
	skipUnknown bool
}

func (d *wire) fail(what string) error {
	return fmt.Errorf("%s at offset %d", what, d.i)
}

// ws skips JSON whitespace.
func (d *wire) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *wire) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// lit consumes the literal s (null, true, false) if it comes next.
func (d *wire) lit(s string) bool {
	if len(d.b)-d.i >= len(s) && d.b[d.i] == s[0] && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// end requires that only whitespace follows the top-level value.
func (d *wire) end() error {
	d.ws()
	if d.i != len(d.b) {
		return d.fail("data after the top-level value")
	}
	return nil
}

// object walks the top-level value — null, or an object — handing each
// key's value to field with the key's index in names.
func (d *wire) object(names []string, field func(k int) error) error {
	d.ws()
	if d.lit("null") {
		return nil
	}
	if !d.eat('{') {
		return d.fail("expected an object")
	}
	d.ws()
	if d.eat('}') {
		return nil
	}
	for {
		d.ws()
		key, err := d.key()
		if err != nil {
			return err
		}
		k := fieldIndex(key, names)
		if k < 0 && !d.skipUnknown {
			return fmt.Errorf("unknown field %q", key)
		}
		d.ws()
		if !d.eat(':') {
			return d.fail("expected ':'")
		}
		d.ws()
		if k < 0 {
			if !d.skip() {
				return d.fail("malformed value")
			}
		} else if err := field(k); err != nil {
			return err
		}
		d.ws()
		if d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return d.fail("expected ',' or '}'")
		}
	}
}

// array decodes a JSON array into dst's storage as encoding/json decodes
// into a slice: elements overwrite dst in place, null for the whole array
// yields nil, and [] yields a non-nil empty slice without storage.
func array[T any](d *wire, dst []T, elem func(*T) error) ([]T, error) {
	if d.lit("null") {
		return nil, nil
	}
	if !d.eat('[') {
		return dst, d.fail("expected an array")
	}
	d.ws()
	if d.eat(']') {
		if dst == nil {
			return []T{}, nil
		}
		return dst[:0:0], nil
	}
	dst = dst[:0]
	for {
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			var zero T
			dst = append(dst, zero)
		}
		d.ws()
		if err := elem(&dst[len(dst)-1]); err != nil {
			return dst, err
		}
		d.ws()
		if d.eat(']') {
			return dst, nil
		}
		if !d.eat(',') {
			return dst, d.fail("expected ',' or ']'")
		}
	}
}

// float decodes a number into *p; null leaves *p as it is.
func (d *wire) float(p *float64) error {
	if d.lit("null") {
		return nil
	}
	tok := d.number()
	if tok == nil {
		return d.fail("expected a number")
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.fail("number out of range")
	}
	*p = v
	return nil
}

// floatRow decodes one feature row.
func (d *wire) floatRow(p *[]float64) (err error) {
	*p, err = array(d, *p, d.float)
	return err
}

// intElem decodes an integer into *p; null leaves *p as it is.
func (d *wire) intElem(p *int) error {
	if d.lit("null") {
		return nil
	}
	v, err := d.integer(strconv.IntSize)
	if err == nil {
		*p = int(v)
	}
	return err
}

// int64Value decodes an integer; null keeps v.
func (d *wire) int64Value(v int64) (int64, error) {
	if d.lit("null") {
		return v, nil
	}
	return d.integer(64)
}

// integer decodes a number token that must be an in-range integer literal:
// encoding/json rejects 1.0 or 1e2 for an integer field.
func (d *wire) integer(bits int) (int64, error) {
	tok := d.number()
	if tok == nil {
		return 0, d.fail("expected a number")
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, d.fail("expected an integer in range")
	}
	return v, nil
}

// boolValue decodes true or false; null keeps v.
func (d *wire) boolValue(v bool) (bool, error) {
	switch {
	case d.lit("null"):
		return v, nil
	case d.lit("true"):
		return true, nil
	case d.lit("false"):
		return false, nil
	}
	return v, d.fail("expected a boolean")
}

// stringValue decodes a string; null keeps v. The allocator names the server
// knows are returned as constants, so the warm path does not allocate.
func (d *wire) stringValue(v string) (string, error) {
	if d.lit("null") {
		return v, nil
	}
	tok, plain, err := d.str()
	if err != nil {
		return v, err
	}
	if !plain {
		return unquote(tok), nil
	}
	switch s := tok[1 : len(tok)-1]; string(s) {
	case "auto":
		return "auto", nil
	case "crl":
		return "crl", nil
	case "dcta":
		return "dcta", nil
	default:
		return string(s), nil
	}
}

// key reads an object key, unquoted.
func (d *wire) key() ([]byte, error) {
	tok, plain, err := d.str()
	switch {
	case err != nil:
		return nil, err
	case plain:
		return tok[1 : len(tok)-1], nil
	}
	return []byte(unquote(tok)), nil
}

// unquote decodes a validated string token that holds an escape or invalid
// UTF-8 the way encoding/json does.
func unquote(tok []byte) string {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		panic("serve: unquote of a validated string token: " + err.Error())
	}
	return s
}

// str consumes a string token, checking it as the JSON scanner does, and
// returns it with its quotes. plain reports that the bytes between the
// quotes are the value: no escapes and valid UTF-8.
func (d *wire) str() (tok []byte, plain bool, err error) {
	start := d.i
	if !d.eat('"') {
		return nil, false, d.fail("expected a string")
	}
	plain = true
	high := false
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			tok = d.b[start:d.i]
			if high && plain && !utf8.Valid(tok) {
				plain = false
			}
			return tok, plain, nil
		case c == '\\':
			plain = false
			d.i++
			if d.i >= len(d.b) {
				break
			}
			switch d.b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				if !hex4(d.b[d.i+1:]) {
					return nil, false, d.fail("malformed \\u escape")
				}
				d.i += 5
			default:
				return nil, false, d.fail("malformed escape")
			}
		case c < 0x20:
			return nil, false, d.fail("control character in string")
		default:
			high = high || c >= utf8.RuneSelf
			d.i++
		}
	}
	return nil, false, d.fail("unterminated string")
}

func hex4(b []byte) bool {
	if len(b) < 4 {
		return false
	}
	for _, c := range b[:4] {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// number consumes a token of the JSON number grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and returns it, or nil
// (consuming nothing) when none starts here.
func (d *wire) number() []byte {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return nil
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil
		}
		i = digits(b, i)
	}
	tok := b[d.i:i]
	d.i = i
	return tok
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index past the run of digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// skip consumes one value without decoding it, tracking only strings and
// bracket depth — enough to find where a well-formed value ends.
func (d *wire) skip() bool {
	start, depth := d.i, 0
	for d.i < len(d.b) {
		if depth > 0 {
			i, b := d.i, d.b
			for i < len(b) && !containerStops[b[i]] {
				i++
			}
			if d.i = i; i == len(b) {
				return false
			}
		}
		switch d.b[d.i] {
		case '"':
			if _, _, err := d.str(); err != nil {
				return false
			}
			if depth == 0 {
				return true
			}
			continue
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return d.i > start
			}
			if depth--; depth == 0 {
				d.i++
				return true
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return d.i > start
			}
		}
		d.i++
	}
	return depth == 0 && d.i > start
}

// containerStops are the bytes skip must look at inside a container.
var containerStops = [256]bool{'"': true, '{': true, '[': true, '}': true, ']': true}

// fieldIndex resolves a key against names the way encoding/json matches
// struct fields: exactly first, then under Unicode simple case folding (so
// "SIGNATURE" and "ſignature" match "signature"). It returns -1 for an
// unknown key.
func fieldIndex(key []byte, names []string) int {
	for k, name := range names {
		if string(key) == name {
			return k
		}
	}
	for k, name := range names {
		if strings.EqualFold(string(key), name) {
			return k
		}
	}
	return -1
}
