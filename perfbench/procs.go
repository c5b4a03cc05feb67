package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Program processes: launching the shipped binaries, waiting until they
// are ready, reading their CPU time and peak memory from /proc, and
// stopping them. Every process the benchmark starts is registered so that
// any exit path, including a signal, kills and reaps it.

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// programNice is the niceness the program's processes run at.
const programNice = 5

type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *os.File
}

var (
	procsMu sync.Mutex
	live    = map[*proc]bool{}
)

func startProc(bin, logDir, name, addr string, args ...string) (*proc, error) {
	f, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	// The program runs at a lower CPU priority than the benchmark process so
	// that the generator keeps its schedule when the cores are busy; nice(1)
	// execs the binary, so the pid is the program's own.
	cmd := exec.Command("nice", append([]string{"-n", strconv.Itoa(programNice), bin}, args...)...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, log: f}
	procsMu.Lock()
	live[p] = true
	procsMu.Unlock()
	return p, nil
}

// stop kills the process and waits until it has exited.
func (p *proc) stop() {
	procsMu.Lock()
	if !live[p] {
		procsMu.Unlock()
		return
	}
	delete(live, p)
	procsMu.Unlock()
	_ = p.cmd.Process.Kill() // fails only if it already exited; Wait reaps either way
	_ = p.cmd.Wait()         // a killed process always reports an error
	p.log.Close()
}

// stopAll stops every process still running.
func stopAll() {
	procsMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	procsMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// cpuSeconds is utime+stime of the process so far.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.name)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat", p.name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: bad cpu fields", p.name)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB is VmHWM in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", p.name)
}

// topology is the running program: one server, or three shards plus the
// router. entry is where requests go.
type topology struct {
	procs  []*proc
	shards []*proc
	router *proc
	entry  string
}

func (t *topology) stop() {
	for _, p := range t.procs {
		p.stop()
	}
}

func (t *topology) peakRSSMB() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		m, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += m
	}
	return sum, nil
}

func freeAddrs(n int) ([]string, error) {
	out := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		out[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return out, nil
}

// launchSingle starts one dcta-server on world seed and waits for /healthz.
func launchSingle(binDir, logDir, tag string, worldSeed int64) (*topology, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	p, err := startProc(filepath.Join(binDir, "dcta-server"), logDir, tag+"-server", addrs[0],
		"-addr", addrs[0], "-scale", "fast", "-seed", strconv.FormatInt(worldSeed, 10))
	if err != nil {
		return nil, err
	}
	t := &topology{procs: []*proc{p}, shards: []*proc{p}, entry: addrs[0]}
	if err := waitHealthy(addrs[0], 30*time.Second); err != nil {
		t.stop()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return t, nil
}

// waitHealthy waits until addr answers /healthz with 200.
func waitHealthy(addr string, timeout time.Duration) error {
	return waitFor(timeout, func() (bool, error) {
		status, _, err := get(addr, "/healthz", time.Second)
		return err == nil && status == 200, nil
	})
}

// launchCluster starts three gossiping shards (s1 and s2 join through s0)
// and a router joined the same way, with every default left alone (R=2,
// 1s gossip interval), and waits until the router and every shard see all
// four members alive. The joiners start once s0 answers: started together
// with it, a joiner finds it not yet listening and retries a second later,
// which made set-up time jump by whole seconds.
func launchCluster(binDir, logDir, tag string, worldSeed int64) (*topology, error) {
	addrs, err := freeAddrs(4)
	if err != nil {
		return nil, err
	}
	seedFlag := strconv.FormatInt(worldSeed, 10)
	t := &topology{entry: addrs[3]}
	for i := 0; i < 3; i++ {
		args := []string{"-addr", addrs[i], "-scale", "fast", "-seed", seedFlag,
			"-node-id", "s" + strconv.Itoa(i), "-advertise", addrs[i]}
		if i > 0 {
			args = append(args, "-join", addrs[0])
		}
		p, err := startProc(filepath.Join(binDir, "dcta-server"), logDir,
			fmt.Sprintf("%s-shard%d", tag, i), addrs[i], args...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.procs = append(t.procs, p)
		t.shards = append(t.shards, p)
		if i == 0 {
			if err := waitHealthy(p.addr, 30*time.Second); err != nil {
				t.stop()
				return nil, fmt.Errorf("seed shard not ready: %w", err)
			}
		}
	}
	r, err := startProc(filepath.Join(binDir, "dcta-router"), logDir, tag+"-router", addrs[3],
		"-addr", addrs[3], "-scale", "fast", "-seed", seedFlag, "-advertise", addrs[3], "-join", addrs[0])
	if err != nil {
		t.stop()
		return nil, err
	}
	t.procs = append(t.procs, r)
	t.router = r
	err = waitFor(60*time.Second, func() (bool, error) {
		var rs routerStats
		if err := getJSON(r.addr, "/v1/stats", &rs); err != nil {
			return false, nil
		}
		if rs.LiveShards != 3 || rs.Membership == nil || rs.Membership.Alive != 4 {
			return false, nil
		}
		for _, s := range t.shards {
			var ss serverStats
			if err := getJSON(s.addr, "/v1/stats", &ss); err != nil {
				return false, nil
			}
			if ss.Membership == nil || ss.Membership.Alive != 4 {
				return false, nil
			}
		}
		return true, nil
	})
	if err != nil {
		t.stop()
		return nil, fmt.Errorf("cluster not converged: %w", err)
	}
	return t, nil
}

// waitFor polls cond every 5ms until it holds, returns an error, or
// timeout passes.
func waitFor(timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getJSON(addr, path string, v any) error {
	status, body, err := get(addr, path, 5*time.Second)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// The slices of /v1/stats the benchmark reads, at phase boundaries only:
// every call sorts the server's latency ring.

type membershipStats struct {
	Alive        int   `json:"alive"`
	PingsSent    int64 `json:"pings_sent"`
	IndirectReqs int64 `json:"indirect_reqs"`
	JoinsSent    int64 `json:"joins_sent"`
}

type serverStats struct {
	Allocates  int64 `json:"allocates"`
	Refits     int64 `json:"refits"`
	WindowSize int   `json:"feedback_window"`
	Cache      struct {
		Hits            int64 `json:"hits"`
		Misses          int64 `json:"misses"`
		Trainings       int64 `json:"trainings"`
		BatchRuns       int64 `json:"batch_runs"`
		BatchedRequests int64 `json:"batched_requests"`
		SoloRequests    int64 `json:"solo_requests"`
		WarmStarts      int64 `json:"warm_starts"`
		EarlyStops      int64 `json:"early_stops"`
	} `json:"cache"`
	Membership  *membershipStats `json:"membership"`
	Replication *struct {
		Enqueued int64 `json:"enqueued"`
		Pushes   int64 `json:"pushes"`
		Dropped  int64 `json:"replication_dropped"`
		Errors   int64 `json:"errors"`
	} `json:"replication"`
}

type routerStats struct {
	Retries    int64            `json:"retries"`
	Ejections  int64            `json:"ejections"`
	LiveShards int              `json:"live_shards"`
	Membership *membershipStats `json:"membership"`
}

// snapshot is every program process's counters and CPU at one instant.
type snapshot struct {
	at     time.Time
	shards []serverStats
	router *routerStats
	cpu    []float64 // per process, topology order
	cpuSum float64
}

func (t *topology) snapshot() (*snapshot, error) {
	s := &snapshot{at: time.Now()}
	for _, p := range t.shards {
		var ss serverStats
		if err := getJSON(p.addr, "/v1/stats", &ss); err != nil {
			return nil, fmt.Errorf("%s stats: %w", p.name, err)
		}
		s.shards = append(s.shards, ss)
	}
	if t.router != nil {
		var rs routerStats
		if err := getJSON(t.router.addr, "/v1/stats", &rs); err != nil {
			return nil, fmt.Errorf("router stats: %w", err)
		}
		s.router = &rs
	}
	for _, p := range t.procs {
		c, err := p.cpuSeconds()
		if err != nil {
			return nil, err
		}
		s.cpu = append(s.cpu, c)
		s.cpuSum += c
	}
	return s, nil
}

// cpuSeconds is utime+stime summed over the topology's processes.
func (t *topology) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range t.procs {
		c, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// settleReplication waits until every shard has queued every policy it
// trained for replication and pushed (or given up on) every one it queued,
// so that what follows does not share the cores with set-up's replica
// transfers. A shard queues a policy just after answering the request
// that trained it, hence the first condition.
func (t *topology) settleReplication(timeout time.Duration) error {
	return waitFor(timeout, func() (bool, error) {
		for _, p := range t.shards {
			var ss serverStats
			if err := getJSON(p.addr, "/v1/stats", &ss); err != nil {
				return false, err
			}
			if rp := ss.Replication; rp != nil && (rp.Enqueued < ss.Cache.Trainings || rp.Pushes+rp.Dropped+rp.Errors < rp.Enqueued) {
				return false, nil
			}
		}
		return true, nil
	})
}

// sum adds the shard counters of a snapshot.
func (s *snapshot) sum() serverStats {
	var out serverStats
	for _, ss := range s.shards {
		out.Allocates += ss.Allocates
		out.Refits += ss.Refits
		if ss.WindowSize > out.WindowSize {
			out.WindowSize = ss.WindowSize
		}
		out.Cache.Hits += ss.Cache.Hits
		out.Cache.Misses += ss.Cache.Misses
		out.Cache.Trainings += ss.Cache.Trainings
		out.Cache.BatchRuns += ss.Cache.BatchRuns
		out.Cache.BatchedRequests += ss.Cache.BatchedRequests
		out.Cache.SoloRequests += ss.Cache.SoloRequests
		out.Cache.WarmStarts += ss.Cache.WarmStarts
		out.Cache.EarlyStops += ss.Cache.EarlyStops
	}
	return out
}
