package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The open-loop generator. Requests are due on a constant-rate schedule
// (wrk2 style) and every latency is timed from the moment a request was
// due, so a stall in the server also charges the requests queued behind
// it. Pacing runs on locked OS threads that wake on a fixed tick and write
// every request that has come due since the previous tick in one write per
// connection: no request gets a sleep of its own, and Go's timer
// granularity (about 1 ms on a small virtual machine) never enters the
// schedule.
// How late the generator ran is measured per request and reported.

const (
	// paceTick is the pacer's wake-up period.
	paceTick = 250 * time.Microsecond
	// latencyLimit is the p99 limit a rate must meet.
	latencyLimit = 5 * time.Millisecond
	// lateLimitFrac marks a timed phase invalid when the generator's p99
	// lateness exceeds this fraction of latencyLimit. On a 2-vCPU virtual
	// machine nanosleep wake-ups alone overshoot by about 1 ms at p99 when
	// idle and by 2-4 ms under load, so the fraction is the whole limit: a
	// phase is invalid when the generator by itself would miss the limit.
	lateLimitFrac = 1.0
	// drainGrace bounds how long a phase waits for its last responses.
	drainGrace = 5 * time.Second
)

// item is one scheduled request.
type item struct {
	conn  uint8 // connection index
	write bool  // feedback instead of allocate
	pool  int32 // request-pool index
}

// phase is the record of one open-loop phase: the schedule and, per item,
// when it was sent and answered and what came back.
type phase struct {
	name   string
	period int64 // ns between due times
	items  []item
	sent   []int64 // ns after phase start
	recv   []int64 // ns after phase start; 0 = no response
	status []int16
	alloc  []int32 // interned allocation (reads), -1 = none
	mode   []uint8 // modeNormal / modeDegraded (reads)
	refit  []bool  // the feedback triggered a refit (writes)
	// start is the wall-clock phase start, for ordering across phases.
	start time.Time
}

const (
	modeNone uint8 = iota
	modeNormal
	modeDegraded
)

func (p *phase) due(i int) int64 { return int64(i) * p.period }

// interner maps raw allocation bytes to small ids. Each response reader
// owns one, and the run keeps one that every phase's ids are merged into.
type interner struct {
	ids  map[string]int32
	vals []string
}

func newInterner() *interner { return &interner{ids: map[string]int32{}} }

func (in *interner) id(raw []byte) int32 {
	if id, ok := in.ids[string(raw)]; ok {
		return id
	}
	id := int32(len(in.vals))
	s := string(raw)
	in.ids[s] = id
	in.vals = append(in.vals, s)
	return id
}

// runPhase drives items against addr at rate requests per second over
// nconns keep-alive connections and returns the filled-in record. Frames
// come from readFrames and writeFrames, indexed by item.pool.
func runPhase(name, addr string, rate float64, items []item, nconns int,
	readFrames, writeFrames [][]byte, table *interner) (*phase, error) {
	n := len(items)
	p := &phase{
		name: name, period: int64(1e9 / rate), items: items,
		sent: make([]int64, n), recv: make([]int64, n), status: make([]int16, n),
		alloc: make([]int32, n), mode: make([]uint8, n), refit: make([]bool, n),
	}
	conns := make([]net.Conn, nconns)
	for i := range conns {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			for _, o := range conns[:i] {
				o.Close()
			}
			return nil, fmt.Errorf("phase %s: dial: %w", name, err)
		}
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true) // the default; stated because batching is the pacer's job
		}
		conns[i] = c
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	// Each FIFO carries the item indices written to its connection, in
	// order; it is sized to the number of items so the pacer never blocks.
	fifos := make([]chan int32, nconns)
	interners := make([]*interner, nconns)
	done := make(chan struct{}, nconns)
	span := time.Duration(p.due(n)) + drainGrace
	p.start = time.Now()
	base := p.start
	for ci := range conns {
		fifos[ci] = make(chan int32, n)
		interners[ci] = newInterner()
		if err := conns[ci].SetDeadline(base.Add(span)); err != nil {
			return nil, err
		}
		go func(ci int) {
			defer func() { done <- struct{}{} }()
			p.read(conns[ci], fifos[ci], interners[ci], base)
		}(ci)
	}

	p.pace(conns, fifos, base, readFrames, writeFrames)
	for _, f := range fifos {
		close(f)
	}
	for range conns {
		<-done
	}
	// Merge the readers' interned allocations into the run-wide table.
	remap := make([][]int32, nconns)
	for ci, in := range interners {
		remap[ci] = make([]int32, len(in.vals))
		for j, s := range in.vals {
			remap[ci][j] = table.id([]byte(s))
		}
	}
	for i, it := range items {
		if !it.write && p.alloc[i] >= 0 {
			p.alloc[i] = remap[it.conn][p.alloc[i]]
		}
	}
	return p, nil
}

// pace writes every item at or after its due time. One pacer thread per
// CPU (up to maxPacers), each pinned to its CPU, wakes every paceTick;
// whichever gets the lock first writes everything that has come due. On a
// virtual machine the host deschedules one vCPU at a time for milliseconds;
// a single pacer sleeping on that vCPU would send late, while a pacer on
// the other vCPU keeps the schedule.
func (p *phase) pace(conns []net.Conn, fifos []chan int32, base time.Time, readFrames, writeFrames [][]byte) {
	var (
		mu     sync.Mutex // held while claiming due items and writing them
		next   int
		bufs   = make([][]byte, len(conns))
		broken = make([]bool, len(conns))
		done   atomic.Bool
		wg     sync.WaitGroup
	)
	send := func() bool {
		now := int64(time.Since(base))
		for ci := range bufs {
			bufs[ci] = bufs[ci][:0]
		}
		for next < len(p.items) && p.due(next) <= now {
			it := p.items[next]
			f := readFrames[it.pool]
			if it.write {
				f = writeFrames[it.pool]
			}
			bufs[it.conn] = append(bufs[it.conn], f...)
			p.sent[next] = now
			fifos[it.conn] <- int32(next)
			next++
		}
		for ci, b := range bufs {
			if len(b) == 0 || broken[ci] {
				continue
			}
			if _, err := conns[ci].Write(b); err != nil {
				// The reader sees the same failure and marks every
				// outstanding item on this connection as failed.
				broken[ci] = true
			}
		}
		return next == len(p.items)
	}
	pacers := min(runtime.NumCPU(), maxPacers)
	for cpu := 0; cpu < pacers; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			// The thread is pinned, so it must not go back to the
			// runtime's pool: returning while locked retires it.
			runtime.LockOSThread()
			pinToCPU(cpu)
			tick := syscall.NsecToTimespec(int64(paceTick))
			for !done.Load() {
				if mu.TryLock() {
					if send() {
						done.Store(true)
					}
					mu.Unlock()
				}
				if !done.Load() {
					_ = syscall.Nanosleep(&tick, nil) // EINTR only shortens one tick
				}
			}
		}(cpu)
	}
	wg.Wait()
}

// maxPacers bounds the redundant pacer threads.
const maxPacers = 2

// pinToCPU restricts the calling thread to one CPU, best effort: an
// unpinned pacer still paces, it only loses the redundancy.
func pinToCPU(cpu int) {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// read consumes responses in FIFO order until the FIFO closes.
func (p *phase) read(c net.Conn, fifo chan int32, in *interner, base time.Time) {
	br := bufio.NewReaderSize(c, 256<<10)
	var body []byte
	failed := false
	for idx := range fifo {
		p.alloc[idx] = -1
		if failed {
			continue
		}
		status, b, err := readResponse(br, body)
		body = b
		if err != nil {
			failed = true
			continue
		}
		p.recv[idx] = int64(time.Since(base))
		p.status[idx] = int16(status)
		if status != 200 {
			continue
		}
		if p.items[idx].write {
			p.refit[idx] = bytes.Contains(body, keyRefitted)
			continue
		}
		if raw := allocationField(body); raw != nil {
			p.alloc[idx] = in.id(raw)
		}
		switch string(stringField(body, keyMode)) {
		case "normal":
			p.mode[idx] = modeNormal
		case "degraded":
			p.mode[idx] = modeDegraded
		}
	}
}

// phaseSummary is what one phase measured.
//
// Read latencies are also cut into windows of windowReads consecutive
// successful reads, each with its own p50 and p99. On a small virtual
// machine the host stalls every vCPU for several milliseconds every few
// seconds; a p99 over a whole phase mostly counts those stalls, while the
// median over windows of the window p99 is the tail the program produces
// between them, and it repeats from run to run.
type phaseSummary struct {
	reads, writes   int
	readOK, writeOK int
	failed          int       // non-2xx or no response
	readLat         []float64 // ms from due time, successful reads, sorted
	writeLat        []float64 // ms from due time, successful writes, sorted
	lateP99Ms       float64   // generator lateness p99 over the phase
	onTime          int       // reads answered 200 within latencyLimit
	winP50, winP90  []float64 // per-window read quantiles, in schedule order
	winP99          []float64
}

// windowReads is the number of reads per latency window: enough for a p99
// with five samples beyond it.
const windowReads = 500

func (p *phase) summarize() phaseSummary {
	var s phaseSummary
	late := make([]float64, 0, len(p.items))
	limit := float64(latencyLimit) / 1e6
	win := make([]float64, 0, windowReads)
	flush := func() {
		sort.Float64s(win)
		s.winP50 = append(s.winP50, quantile(win, 0.5))
		s.winP90 = append(s.winP90, quantile(win, 0.9))
		s.winP99 = append(s.winP99, quantile(win, 0.99))
		win = win[:0]
	}
	for i, it := range p.items {
		late = append(late, float64(p.sent[i]-p.due(i))/1e6)
		ok := p.status[i] >= 200 && p.status[i] < 300 && p.recv[i] > 0
		if !ok {
			s.failed++
		}
		lat := float64(p.recv[i]-p.due(i)) / 1e6
		if it.write {
			s.writes++
			if ok {
				s.writeOK++
				s.writeLat = append(s.writeLat, lat)
			}
			continue
		}
		s.reads++
		if !ok {
			continue
		}
		s.readOK++
		s.readLat = append(s.readLat, lat)
		if lat <= limit {
			s.onTime++
		}
		if win = append(win, lat); len(win) == windowReads {
			flush()
		}
	}
	if len(win) >= windowReads/2 || len(s.winP99) == 0 && len(win) > 0 {
		flush()
	}
	sort.Float64s(late)
	sort.Float64s(s.readLat)
	sort.Float64s(s.writeLat)
	s.lateP99Ms = quantile(late, 0.99)
	return s
}

// meetsLimit reports whether a phase ran at its rate within the latency
// limit with no growing backlog: nothing failed, the generator kept to its
// schedule, and the median window p90 of the whole phase and of its second
// half are within the limit (a growing backlog fails the second). The
// verdict uses p90, not p99: past the knee every percentile crosses the
// limit within a fraction of a second, while below it a window p99 on a
// small virtual machine often counts one host stall, which would make the
// search measure the host.
func (s phaseSummary) meetsLimit() bool {
	limit := float64(latencyLimit) / 1e6
	return s.failed == 0 && len(s.winP90) > 0 &&
		median(s.winP90) <= limit && median(s.winP90[len(s.winP90)/2:]) <= limit &&
		s.lateP99Ms <= lateLimitFrac*limit
}

// quantile returns the nearest-rank q-quantile of sorted xs, 0 if empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of unsorted xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
