package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/serve"
)

// The cluster test world mirrors internal/serve's: the tight 6-task /
// 2-processor TATIM template where an allocator must drop two of six tasks,
// over clusterCount well-separated one-dimensional signatures so requests
// exercise every ring range.
const clusterCount = 8

func testTemplate() *core.Problem {
	p := &core.Problem{TimeLimit: 2}
	for j := 0; j < 6; j++ {
		p.Tasks = append(p.Tasks, core.TaskSpec{ID: j, TimeCost: 1, Resource: 0.5})
	}
	for i := 0; i < 2; i++ {
		p.Processors = append(p.Processors, core.Processor{ID: i, Capacity: 2, SpeedFactor: 1})
	}
	return p
}

func testStore(t testing.TB) *core.EnvironmentStore {
	t.Helper()
	store := core.NewEnvironmentStore()
	for k := 0; k < clusterCount; k++ {
		imp := make([]float64, 6)
		for j := range imp {
			imp[j] = 0.05
		}
		for j := 0; j < 3; j++ {
			imp[3*(k%2)+j] = 0.9
		}
		if err := store.Add(&core.Environment{
			Importance: imp,
			Capacity:   []float64{2, 2},
			Signature:  []float64{float64(k)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// fastServeConfig keeps per-cluster training to a few milliseconds.
func fastServeConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.ClusterNeighborhood = 1
	cfg.Logf = func(string, ...any) {}
	cfg.CRL = core.CRLConfig{
		K:        1,
		Episodes: 8,
		Seed:     11,
		DQN: rl.DQNConfig{
			Hidden:      []int{16},
			BatchSize:   8,
			WarmupSteps: 16,
			Epsilon:     rl.EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 60},
			Seed:        12,
		},
	}
	return cfg
}

// startCluster boots an n-shard topology with deterministic membership: the
// probe ticker is effectively disabled, so liveness changes come only from
// proxy I/O errors and explicit ProbeOnce calls.
func startCluster(t *testing.T, n int, wrap func(id, addr string) (string, func(), error)) *LocalCluster {
	t.Helper()
	lc, err := StartLocal(testTemplate(), testStore(t), nil, LocalOptions{
		Shards: n,
		Serve:  fastServeConfig(),
		Router: RouterConfig{
			ProbeEvery:   time.Hour,
			ProbeTimeout: 2 * time.Second,
		},
		WrapShardAddr: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// allocBody renders an allocate/feedback request for one cluster signature.
func allocBody(k int) []byte {
	return []byte(fmt.Sprintf(`{"signature":[%d]}`, k))
}

func post(t testing.TB, addr, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s read: %v", path, err)
	}
	return resp.StatusCode, out
}

func get(t testing.TB, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s read: %v", path, err)
	}
	return resp.StatusCode, out
}

// TestClusterRoutingDeterminism drives one allocate per cluster signature
// through the router and checks the observed per-shard request counts match
// the ring's predicted ownership exactly, and that the served shard map
// round-trips into the same ring.
func TestClusterRoutingDeterminism(t *testing.T) {
	lc := startCluster(t, 3, nil)

	want := map[string]int64{}
	ring := lc.Router().Ring()
	for k := 0; k < clusterCount; k++ {
		want[ring.Owner(k)]++
	}

	const rounds = 3 // repeats must land on the same owners
	for round := 0; round < rounds; round++ {
		for k := 0; k < clusterCount; k++ {
			code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k))
			if code != http.StatusOK {
				t.Fatalf("allocate cluster %d: %d %s", k, code, body)
			}
		}
	}

	st := lc.Router().Stats()
	if st.Requests != rounds*clusterCount {
		t.Fatalf("router counted %d requests, want %d", st.Requests, rounds*clusterCount)
	}
	for _, sc := range st.Shards {
		if got, wantN := sc.Proxied, rounds*want[sc.ID]; got != wantN {
			t.Errorf("shard %s proxied %d requests, ring predicts %d", sc.ID, got, wantN)
		}
		if sc.NonOK != 0 || sc.IOErrors != 0 {
			t.Errorf("shard %s: non-2xx=%d io-errors=%d on a healthy run", sc.ID, sc.NonOK, sc.IOErrors)
		}
	}

	// The wire-format shard map must validate and rebuild the routing ring.
	code, body := get(t, lc.Addr(), "/v1/cluster")
	if code != http.StatusOK {
		t.Fatalf("/v1/cluster: %d", code)
	}
	m, err := ParseShardMap(body)
	if err != nil {
		t.Fatalf("served shard map invalid: %v", err)
	}
	rebuilt, err := m.Ring()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < clusterCount; k++ {
		if rebuilt.Owner(k) != ring.Owner(k) {
			t.Fatalf("cluster %d: rebuilt ring resolves %q, router routes %q", k, rebuilt.Owner(k), ring.Owner(k))
		}
	}

	if code, _ := get(t, lc.Addr(), "/healthz"); code != http.StatusOK {
		t.Fatalf("router healthz: %d", code)
	}

	// Every shard's own stats endpoint must expose its cluster identity,
	// and the identities must partition the store.
	ownedTotal := 0
	for i := 0; i < lc.Shards(); i++ {
		code, body := get(t, lc.ShardAddr(i), "/v1/stats")
		if code != http.StatusOK {
			t.Fatalf("shard %d stats: %d", i, code)
		}
		var st struct {
			Cluster *struct {
				NodeID        string  `json:"node_id"`
				RingPositions int     `json:"ring_positions"`
				OwnedClusters []int   `json:"owned_clusters"`
				OwnedFraction float64 `json:"owned_fraction"`
			} `json:"cluster"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.Cluster == nil {
			t.Fatalf("shard %d stats carry no cluster identity", i)
		}
		if st.Cluster.NodeID != lc.ShardID(i) {
			t.Fatalf("shard %d identifies as %q, want %q", i, st.Cluster.NodeID, lc.ShardID(i))
		}
		if st.Cluster.RingPositions < 1 {
			t.Fatalf("shard %d reports %d ring positions", i, st.Cluster.RingPositions)
		}
		for _, k := range st.Cluster.OwnedClusters {
			if ring.Owner(k) != lc.ShardID(i) {
				t.Fatalf("shard %d claims cluster %d; ring says %q", i, k, ring.Owner(k))
			}
		}
		ownedTotal += len(st.Cluster.OwnedClusters)
	}
	if ownedTotal != clusterCount {
		t.Fatalf("identities cover %d/%d clusters", ownedTotal, clusterCount)
	}
}

// TestClusterFailoverAndWarmRejoin is the availability core: kill a shard
// mid-service, show its ranges fail over with zero non-200s, then restart
// it and show it rejoins warm — pulling the failed-over policies back from
// the survivors instead of retraining.
func TestClusterFailoverAndWarmRejoin(t *testing.T) {
	lc := startCluster(t, 3, nil)

	// Warm every cluster once so each owner holds its ranges' policies.
	for k := 0; k < clusterCount; k++ {
		if code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k)); code != http.StatusOK {
			t.Fatalf("warm cluster %d: %d %s", k, code, body)
		}
	}

	// Pick a victim that owns at least one cluster, and one cluster it owns.
	ring := lc.Router().Ring()
	victim, victimKey := -1, -1
	for i := 0; i < lc.Shards(); i++ {
		if owned := ring.OwnedClusters(lc.ShardID(i), clusterCount); len(owned) > 0 {
			victim, victimKey = i, owned[0]
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard owns any cluster")
	}

	if err := lc.KillShard(victim); err != nil {
		t.Fatal(err)
	}

	// Every cluster — including the victim's — must still answer 200. The
	// first request into a dead range costs an ejection + retry.
	for k := 0; k < clusterCount; k++ {
		if code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(k)); code != http.StatusOK {
			t.Fatalf("failover cluster %d: %d %s", k, code, body)
		}
	}
	st := lc.Router().Stats()
	if st.Ejections < 1 || st.Retries < 1 {
		t.Fatalf("kill produced ejections=%d retries=%d; want ≥1 each", st.Ejections, st.Retries)
	}
	if st.LiveShards != 2 {
		t.Fatalf("%d live shards after kill, want 2", st.LiveShards)
	}

	// Restart: the failed-over clusters were retrained by their interim
	// owners, so the rejoiner must pull at least one policy warm.
	pulled, err := lc.RestartShard(victim)
	if err != nil {
		t.Fatal(err)
	}
	if pulled < 1 {
		t.Fatalf("warm rejoin pulled %d policies, want ≥1", pulled)
	}
	lc.Router().ProbeOnce()
	st = lc.Router().Stats()
	if st.Rejoins < 1 || st.LiveShards != 3 {
		t.Fatalf("rejoin not observed: rejoins=%d live=%d", st.Rejoins, st.LiveShards)
	}

	// The victim's first routed request after rejoin must serve from the
	// pulled policy — checkpoint-restored entries answer as "warm" — with
	// no retraining on the rejoin path.
	trainingsBefore := lc.Server(victim).Stats().Cache.Trainings
	code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(victimKey))
	if code != http.StatusOK {
		t.Fatalf("post-rejoin allocate: %d %s", code, body)
	}
	var resp serve.AllocateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cache != serve.CacheWarm || resp.Mode != serve.ModeNormal {
		t.Fatalf("post-rejoin answer cache=%q mode=%q, want a warm restored hit", resp.Cache, resp.Mode)
	}
	if after := lc.Server(victim).Stats().Cache.Trainings; after != trainingsBefore {
		t.Fatalf("rejoined shard trained %d policies; the pull should have made that unnecessary", after-trainingsBefore)
	}
	// And the handoff shows up in its stats.
	if st := lc.Server(victim).Stats(); st.Cluster == nil || st.Cluster.HandoffPulls < 1 {
		t.Fatalf("rejoined shard reports no handoff pulls: %+v", st.Cluster)
	}
}

// TestClusterMalformedBodyPassthrough: requests the router cannot route by
// signature go round-robin and the shard owns the 4xx (an over-limit body is
// the router's own 400); bad requests must never eject anyone.
func TestClusterMalformedBodyPassthrough(t *testing.T) {
	lc := startCluster(t, 3, nil)

	for _, body := range [][]byte{
		[]byte(`{not json`),
		[]byte(`{}`),
		[]byte(`{"signature":[]}`),
		[]byte(`{"signature":[0]} garbage`), // routed by signature, refused by the shard
		append([]byte(`{"signature":[0]}`), bytes.Repeat([]byte(" "), 8<<20)...), // the router's own 400
	} {
		code, resp := post(t, lc.Addr(), "/v1/allocate", body)
		if code != http.StatusBadRequest {
			t.Fatalf("body %.40q: code %d (%s), want 400", body, code, resp)
		}
	}
	st := lc.Router().Stats()
	if st.Ejections != 0 || st.LiveShards != 3 {
		t.Fatalf("malformed bodies moved membership: ejections=%d live=%d", st.Ejections, st.LiveShards)
	}

	// GET on a proxy endpoint is the router's own 405.
	if code, _ := get(t, lc.Addr(), "/v1/allocate"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/allocate: %d, want 405", code)
	}
}

// TestClusterAllShardsDown: with every shard dead the router degrades to
// clean 503s (the one allowed non-2xx) and its own healthz reports it.
func TestClusterAllShardsDown(t *testing.T) {
	lc := startCluster(t, 1, nil)

	if code, _ := post(t, lc.Addr(), "/v1/allocate", allocBody(0)); code != http.StatusOK {
		t.Fatalf("healthy allocate: %d", code)
	}
	if err := lc.KillShard(0); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, lc.Addr(), "/v1/allocate", allocBody(0))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("allocate with no shards: %d %s, want 503", code, body)
	}
	if code, _ := get(t, lc.Addr(), "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("router healthz with no shards: %d, want 503", code)
	}
	st := lc.Router().Stats()
	if st.NoShard503s < 1 || st.LiveShards != 0 {
		t.Fatalf("no-shard accounting: 503s=%d live=%d", st.NoShard503s, st.LiveShards)
	}
}
