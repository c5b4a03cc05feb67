package cluster

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
)

// FuzzDecodeGossip throws arbitrary bytes at the gossip wire decoder. The
// endpoint crosses trust boundaries (every member POSTs /v1/gossip to every
// other member), so the property is two-layered: decode never panics, and
// anything decode accepts is fully usable — it re-encodes and re-decodes
// cleanly, and a live agent can apply it (HandleMessage) without panicking
// and answers with a message that is itself wire-valid.
func FuzzDecodeGossip(f *testing.F) {
	seedMsg := func(m GossipMsg) []byte {
		blob, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return blob
	}
	target := Member{ID: "s2", Addr: "127.0.0.1:3", Role: RoleShard}
	f.Add(seedMsg(GossipMsg{Version: GossipVersion, Type: "ping",
		From: Member{ID: "s0", Addr: "127.0.0.1:1", Role: RoleShard}, Epoch: 3,
		Updates: []Update{{Member: Member{ID: "s1", Addr: "127.0.0.1:2", Role: RoleShard, State: StateSuspect, Incarnation: 2}, Epoch: 2}}}))
	f.Add(seedMsg(GossipMsg{Version: GossipVersion, Type: "ping-req",
		From: Member{ID: "s0", Addr: "127.0.0.1:1", Role: RoleShard}, Target: &target, Epoch: 1}))
	f.Add(seedMsg(GossipMsg{Version: GossipVersion, Type: "join",
		From: Member{ID: "joiner", Addr: "127.0.0.1:9", Role: RoleShard}}))
	f.Add(seedMsg(GossipMsg{Version: GossipVersion, Type: "ack", Ack: true, Sync: true,
		From: Member{ID: "router", Addr: "127.0.0.1:4", Role: RoleRouter}, Epoch: 99}))
	// Rumors about the receiving agent itself exercise the refutation path.
	f.Add([]byte(`{"v":1,"type":"ping","from":{"id":"x","addr":"a:1","role":"shard"},"updates":[{"id":"fz","addr":"b:2","role":"shard","inc":7,"state":2,"epoch":5}],"epoch":5}`))
	f.Add([]byte(`{"v":1,"type":"ping-req","from":{"id":"x","addr":"a:1","role":"shard"}}`)) // no target
	f.Add([]byte(`{"v":2,"type":"ping","from":{"id":"x","addr":"a:1","role":"shard"}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeGossip(data)
		if err != nil {
			return
		}
		// Accepted ⇒ re-encodable and still accepted.
		again, err := json.Marshal(msg)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if _, err := DecodeGossip(again); err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		// Accepted ⇒ appliable: a fresh agent (with a transport that always
		// fails, so ping-req relays go nowhere) handles it without panicking
		// and replies with a wire-valid message.
		a, err := NewAgent(Member{ID: "fz", Addr: "127.0.0.1:1", Role: RoleShard},
			GossipConfig{Transport: deadTransport{}})
		if err != nil {
			t.Fatal(err)
		}
		reply := a.HandleMessage(msg)
		if reply == nil {
			t.Fatal("HandleMessage returned no reply")
		}
		blob, err := json.Marshal(reply)
		if err != nil {
			t.Fatalf("reply marshal: %v", err)
		}
		if _, err := DecodeGossip(blob); err != nil {
			t.Fatalf("agent produced a wire-invalid reply: %v", err)
		}
	})
}

// deadTransport fails every exchange (the fuzz agent must not dial out).
type deadTransport struct{}

func (deadTransport) Exchange(string, *GossipMsg, time.Duration) (*GossipMsg, error) {
	return nil, errors.New("dead transport")
}

// FuzzParseShardMap throws arbitrary bytes at the shard-map decoder. The
// document crosses trust boundaries (any client can GET /v1/cluster from
// any router, and tooling rebuilds routing rings from it), so the property
// is: parse never panics, and anything it accepts is fully usable —
// Validate holds and Ring() reconstructs without error.
func FuzzParseShardMap(f *testing.F) {
	valid := ShardMap{
		Version: ShardMapVersion,
		VNodes:  64,
		Shards: []ShardInfo{
			{ID: "s0", Addr: "127.0.0.1:8080", Alive: true, OwnedFraction: 0.5, RingPositions: 64},
			{ID: "s1", Addr: "127.0.0.1:8081", Alive: true, OwnedFraction: 0.5, RingPositions: 64},
		},
	}
	blob, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)*2/3])                                 // truncated JSON
	f.Add([]byte(`{"version":1,"vnodes":1048576,"shards":[]}`)) // vnodes over bound
	f.Add([]byte(`{"version":1,"vnodes":64,"shards":[{"id":"a"},{"id":"a"}]}`))
	f.Add([]byte(`{"version":1,"vnodes":64,"shards":[{"id":"a","owned_fraction":2}]}`))
	f.Add([]byte(`{"version":7,"vnodes":64}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseShardMap(data)
		if err != nil {
			return
		}
		// Accepted ⇒ validated ⇒ ring-buildable.
		if err := m.Validate(); err != nil {
			t.Fatalf("parsed map fails its own Validate: %v", err)
		}
		if _, err := m.Ring(); err != nil {
			t.Fatalf("parsed map cannot rebuild its ring: %v", err)
		}
		// And it round-trips: re-marshal + re-parse stays accepted.
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if _, err := ParseShardMap(again); err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
	})
}

// FuzzPeekSignature holds the router's signature peek to encoding/json:
// whenever json.Unmarshal reads a non-empty signature from a body, the peek
// returns the same slice bit for bit — into fresh storage and into storage
// that held an earlier signature. Other bodies may route anywhere (the shard
// owns their 400), but must not panic the router.
func FuzzPeekSignature(f *testing.F) {
	// A dcta-rw body cut to two feature rows, small enough to minimize fast.
	realBody, err := os.ReadFile("../serve/testdata/allocate_dcta.json")
	if err != nil {
		f.Fatal(err)
	}
	var req serve.AllocateRequest
	if err := json.Unmarshal(realBody, &req); err != nil {
		f.Fatal(err)
	}
	req.Features = req.Features[:2]
	seed, err := json.Marshal(req)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, s := range []string{
		`{"signature":[1]}`, "{\"signature\":[1,2]} trailing", `{"allocator":"crl","signature":[0.5]}`,
		`{"SIGNATURE":[1]}`, `{"ſignature":[2]}`, `{"sig\u006eature":[3]}`, `{"sıgnature":[1]}`,
		`{"signature":[1],"signature":[2,3]}`, `{"signature":[1,2,3],"signature":[null]}`,
		`{"signature":[1,2],"signature":null}`, `{"signature":[null,1]}`, `{"signature":[-0]}`,
		`{"signature":[1e400]}`, `{"signature":[1],"features":[[1e400]]}`,
		`{"features":[[1,"]",{"signature":[9]}]],"signature":[4]}`, `{"x":"\"signature\":[5]","signature":[6]}`,
		`{"signature":[+1]}`, `{"signature":[01]}`, `{"signature":"1"}`, `{"signature":[1]`,
		`null`, `[]`, `{}`, ``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Signature []float64 `json:"signature"`
		}
		if json.Unmarshal(body, &want) != nil || len(want.Signature) == 0 {
			serve.PeekSignature(body, nil)
			return
		}
		for _, dst := range [][]float64{nil, {7, 7, 7, 7, 7, 7, 7, 7}} {
			got, ok := serve.PeekSignature(body, dst)
			if !ok || len(got) != len(want.Signature) {
				t.Fatalf("%q: peek %v ok=%v, encoding/json %v", body, got, ok, want.Signature)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want.Signature[i]) {
					t.Fatalf("%q: peek %v, encoding/json %v", body, got, want.Signature)
				}
			}
		}
	})
}
