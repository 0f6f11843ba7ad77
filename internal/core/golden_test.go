package core

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_rounds.json from the current round drivers")

const goldenPath = "testdata/golden_rounds.json"

// goldenRun pins one fixed-seed training run as raw float bits.
type goldenRun struct {
	Iterates [][]uint64 `json:"iterates"` // Float64bits of each node's final iterate
	Loss     [][]uint64 `json:"loss"`     // Float64bits of each trace's per-round loss
	Cost     [][]uint64 `json:"cost"`     // Float64bits of each trace's per-round cost (Cluster) or socket bytes (PeerNode)
}

type goldenFile struct {
	Cluster goldenRun `json:"cluster"`
	Peer    goldenRun `json:"peer"`
}

func floatBits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func (g *goldenRun) addTrace(tr *metrics.Trace) {
	var loss, cost []float64
	for _, s := range tr.Stats {
		loss = append(loss, s.Loss)
		cost = append(cost, s.RoundCost)
	}
	g.Loss = append(g.Loss, floatBits(loss))
	g.Cost = append(g.Cost, floatBits(cost))
}

// goldenCluster is a small simulated run that walks every repair path of
// the round driver: selective sends, per-node init (round-0 full
// exchange), lossy links (periodic refresh and EXTRA restart), and the
// float32 wire.
func goldenCluster(t *testing.T) goldenRun {
	_, parts := smallPartitions(t, 6, 50, 41)
	c, err := NewCluster(ClusterConfig{
		Topology: graph.Ring(6), Model: model.NewLinearSVM(8), Partitions: parts,
		Alpha: 0.1, Policy: SendSelected, PerNodeInit: true,
		FailureRate: 0.2, RefreshEvery: 4, Float32Wire: true,
		MaxIterations: 40, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	var g goldenRun
	for _, e := range c.Engines() {
		g.Iterates = append(g.Iterates, floatBits(e.Params()))
	}
	g.addTrace(&res.Trace)
	return g
}

// goldenPeers is a fault-free 3-node loopback TCP run: every frame lands
// inside the round timeout, so the run is a pure function of its seeds.
func goldenPeers(t *testing.T) goldenRun {
	const rounds = 20
	nodes := startPeerNodes(t, 3, 30*time.Second, nil)
	traces := make([]*metrics.Trace, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, pn := range nodes {
		wg.Add(1)
		go func(i int, pn *PeerNode) {
			defer wg.Done()
			traces[i], errs[i] = pn.Run(rounds)
		}(i, pn)
	}
	wg.Wait()
	var g goldenRun
	for i, pn := range nodes {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i, errs[i])
		}
		g.Iterates = append(g.Iterates, floatBits(pn.Engine().Params()))
		g.addTrace(traces[i])
	}
	return g
}

// TestGoldenRounds pins both round drivers' output across commits: the
// final iterates, loss traces and per-round cost of two fixed-seed runs
// must match the committed bits exactly. A change that is meant to move
// them regenerates the file with -update in a change of its own.
func TestGoldenRounds(t *testing.T) {
	got := goldenFile{Cluster: goldenCluster(t), Peer: goldenPeers(t)}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want goldenRun
	}{{"cluster", got.Cluster, want.Cluster}, {"peer", got.Peer, want.Peer}} {
		if !reflect.DeepEqual(c.got.Iterates, c.want.Iterates) {
			t.Errorf("%s: final iterates differ from %s", c.name, goldenPath)
		}
		if !reflect.DeepEqual(c.got.Loss, c.want.Loss) {
			t.Errorf("%s: loss trace differs from %s", c.name, goldenPath)
		}
		if !reflect.DeepEqual(c.got.Cost, c.want.Cost) {
			t.Errorf("%s: per-round cost differs from %s", c.name, goldenPath)
		}
	}
}
