package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// This file is the benchmark's own HTTP/1.1 client. It deliberately shares
// no code with internal/rawhttp or internal/loadgen: the router's proxy hop
// runs on rawhttp, and the side doing the measuring must not change when the
// side being measured does.

// frame renders one complete POST request with a fixed Content-Length, so
// the generator's hot loop only copies bytes.
func frame(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, len(body))
	b.Write(body)
	return b.Bytes()
}

var errBadResponse = errors.New("malformed HTTP response")

// readResponse parses one HTTP/1.1 response from br, appending its body to
// body[:0]. It understands Content-Length and chunked bodies, which is all a
// Go net/http server produces.
func readResponse(br *bufio.Reader, body []byte) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, body, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, body, fmt.Errorf("%w: status line %q", errBadResponse, line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, body, fmt.Errorf("%w: status %q", errBadResponse, line)
	}
	length, chunked := -1, false
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, body, err
		}
		if len(line) <= 2 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, body, fmt.Errorf("%w: content length %q", errBadResponse, v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	body = body[:0]
	switch {
	case chunked:
		for {
			line, err = br.ReadSlice('\n')
			if err != nil {
				return 0, body, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, body, fmt.Errorf("%w: chunk size %q", errBadResponse, line)
			}
			if size == 0 {
				if _, err := br.ReadSlice('\n'); err != nil {
					return 0, body, err
				}
				return status, body, nil
			}
			if body, err = readN(br, body, int(size)+2); err != nil {
				return 0, body, err
			}
			body = body[:len(body)-2]
		}
	case length >= 0:
		body, err = readN(br, body, length)
		return status, body, err
	default:
		return 0, body, fmt.Errorf("%w: no body length", errBadResponse)
	}
}

func readN(br *bufio.Reader, dst []byte, n int) ([]byte, error) {
	start := len(dst)
	for cap(dst)-start < n {
		dst = append(dst[:cap(dst)], 0)
	}
	dst = dst[:start+n]
	_, err := io.ReadFull(br, dst[start:])
	return dst, err
}

// get sends one GET on a fresh connection and returns status and body. It
// serves readiness polls and phase-boundary stats reads, never a timed
// request.
func get(addr, path string, timeout time.Duration) (int, []byte, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, nil, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.Write([]byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")); err != nil {
		return 0, nil, err
	}
	status, body, err := readResponse(bufio.NewReader(c), nil)
	if err != nil {
		return 0, nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return status, body, nil
}

// closedConn is one keep-alive connection used in a closed loop: the next
// request is written only after the previous response has been read.
type closedConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dialClosed(addr string) (*closedConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &closedConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// do sends one pre-framed request and waits for its response. The returned
// body aliases the connection's buffer until the next call.
func (cc *closedConn) do(req []byte, timeout time.Duration) (int, []byte, error) {
	if err := cc.c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := cc.c.Write(req); err != nil {
		return 0, nil, err
	}
	status, body, err := readResponse(cc.br, cc.body)
	cc.body = body
	return status, body, err
}

func (cc *closedConn) Close() error { return cc.c.Close() }

// Response field scanners. The server's JSON encoder writes fields in struct
// order with no spaces, so a byte search is exact and keeps the client's CPU
// per response far below the server's.

var (
	keyAllocation = []byte(`"allocation":[`)
	keyMode       = []byte(`"mode":"`)
	keyRefitted   = []byte(`"refitted":true`)
)

// allocationField returns the raw bytes between the brackets of the
// "allocation" array, or nil.
func allocationField(body []byte) []byte {
	i := bytes.Index(body, keyAllocation)
	if i < 0 {
		return nil
	}
	rest := body[i+len(keyAllocation):]
	j := bytes.IndexByte(rest, ']')
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// stringField returns the value of a string field located by key.
func stringField(body, key []byte) []byte {
	i := bytes.Index(body, key)
	if i < 0 {
		return nil
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return nil
	}
	return rest[:j]
}

// parseAllocation decodes the comma-separated integers of an allocation
// field.
func parseAllocation(raw []byte) ([]int, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty allocation")
	}
	parts := bytes.Split(raw, []byte(","))
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(string(p))
		if err != nil {
			return nil, fmt.Errorf("allocation entry %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
