package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/graph"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/serve"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/weights"
)

// Fig. 6 settings for the 60-server credit-SVM simulation.
const (
	simNodes      = 60
	simDegree     = 3
	simSamples    = 30000
	simAlpha      = 0.1
	simMaxRounds  = 400
	simWeightIter = 300
	simWeightStep = 3.0
)

// fig6Rule is the Fig. 6 stopping rule: aggregate loss stable within 0.1%
// for 3 rounds and consensus disagreement below 0.002.
func fig6Rule() metrics.ConvergenceDetector {
	return metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3, ConsensusTol: 0.002}
}

// corpusSeed fixes every workload's corpus and topology, as the paper
// fixes its datasets and snapnode its -data-seed. The run seed varies what
// a deployment does not control: each training's initial parameters and
// the predict request stream. Seeding the topology too would let the
// graph's spectral gap, not the code, set rounds_to_target.
const corpusSeed = 2

// dataRNG derives the input generator for a workload from the run seed.
func dataRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// jobSeed is the init seed of the j-th job of a run.
func jobSeed(seed int64, j int) int64 { return seed*10_007 + int64(j) }

// simSetup is the sim-svm60 workload after set-up.
type simSetup struct {
	mdl     model.Model
	train   *dataset.Dataset
	parts   []*dataset.Dataset
	test    *dataset.Dataset
	topo    *graph.Graph
	w       *linalg.Matrix
	genSecs float64
	wSecs   float64
}

// buildSim sets up sim-svm60: its inputs, then the optimised W.
func buildSim() (*simSetup, error) {
	s, err := simInputs()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	res, err := weights.OptimizeBest(s.topo, weights.BoundParams{Alpha: simAlpha},
		weights.Options{Iterations: simWeightIter, Step: simWeightStep})
	if err != nil {
		return nil, fmt.Errorf("optimize W: %w", err)
	}
	s.w = res.W
	s.wSecs = time.Since(t1).Seconds()
	return s, nil
}

// simInputs generates sim-svm60's data, partitions and topology.
func simInputs() (*simSetup, error) {
	t0 := time.Now()
	rng := dataRNG(corpusSeed, 60)
	ds := dataset.SyntheticCredit(dataset.CreditConfig{Samples: simSamples}, rng)
	train, test := ds.Split(0.85, rng)
	parts, err := train.Partition(simNodes, rng)
	if err != nil {
		return nil, fmt.Errorf("partition credit data: %w", err)
	}
	s := &simSetup{mdl: model.NewLinearSVM(ds.NumFeature), train: train, parts: parts, test: test}
	s.genSecs = time.Since(t0).Seconds()
	s.topo = graph.RandomConnected(simNodes, simDegree, rng)
	return s, nil
}

// clusterConfig is the core.Cluster configuration of one job.
func (s *simSetup) clusterConfig(seed int64) core.ClusterConfig {
	return core.ClusterConfig{
		Topology:      s.topo,
		Model:         s.mdl,
		Partitions:    s.parts,
		Test:          s.test,
		Alpha:         simAlpha,
		Policy:        core.SendSelected,
		Weights:       s.w,
		MaxIterations: simMaxRounds,
		Convergence:   fig6Rule(),
		Seed:          seed,
		PerNodeInit:   true,
	}
}

// tcpSpec describes one of the TCP workloads.
type tcpSpec struct {
	digits    bool // Fig. 4 digits MLP instead of the credit SVM
	samples   int
	alpha     float64
	horizon   int  // rounds per training
	observer0 bool // node 0 runs with the metrics Observer
	serveLive bool // node 0 publishes every round into the gateway's feed while it trains
}

var (
	specMLP3  = tcpSpec{digits: true, alpha: 0.5, horizon: 60}
	specServe = tcpSpec{samples: 12000, alpha: 0.1, horizon: 3000, observer0: true, serveLive: true}
)

const tcpNodes = 3

// tcpData is a TCP workload's inputs and weights after set-up.
type tcpData struct {
	spec    tcpSpec
	mdl     model.Model
	train   *dataset.Dataset
	parts   []*dataset.Dataset
	test    *dataset.Dataset
	topo    *graph.Graph
	w       *linalg.Matrix
	init    linalg.Vector
	genSecs float64
	wSecs   float64
}

// buildTCPData sets up a TCP workload's corpus and weights, with the
// initial parameters of init seed.
func buildTCPData(spec tcpSpec, seed int64) (*tcpData, error) {
	t0 := time.Now()
	d := &tcpData{spec: spec}
	if spec.digits {
		rng := dataRNG(corpusSeed, 4)
		// Fig. 4's corpus with a 2,000-row test split instead of 400: at
		// 400 rows the accuracy estimate's own sampling noise (about
		// ±0.02) dominated accuracy's run-to-run spread.
		d.train, d.test = dataset.SyntheticDigits(dataset.DigitsConfig{Train: 1500, Test: 2000, Noise: 0.4, Shift: 3}, rng)
		parts, err := d.train.Partition(tcpNodes, rng)
		if err != nil {
			return nil, fmt.Errorf("partition digits: %w", err)
		}
		d.parts = parts
		d.mdl = model.NewMLP(d.train.NumFeature, 30, 10)
	} else {
		rng := dataRNG(corpusSeed, 3)
		ds := dataset.SyntheticCredit(dataset.CreditConfig{Samples: spec.samples}, rng)
		d.train, d.test = ds.Split(0.85, rng)
		parts, err := d.train.Partition(tcpNodes, rng)
		if err != nil {
			return nil, fmt.Errorf("partition credit data: %w", err)
		}
		d.parts = parts
		d.mdl = model.NewLinearSVM(ds.NumFeature)
	}
	d.genSecs = time.Since(t0).Seconds()
	d.topo = graph.Complete(tcpNodes)
	t1 := time.Now()
	d.w = weights.Metropolis(d.topo, 0)
	d.wSecs = time.Since(t1).Seconds()
	d.init = d.mdl.InitParams(seed)
	return d, nil
}

func (d *tcpData) engineConfig(id int) core.EngineConfig {
	return core.EngineConfig{
		ID:        id,
		Model:     d.mdl,
		Data:      d.parts[id],
		Alpha:     d.spec.alpha,
		WRow:      d.w.Row(id),
		Neighbors: d.topo.Neighbors(id),
		Policy:    core.SendSelected,
		Init:      d.init,
	}
}

// roundTimer is a core.ParamSink that timestamps the end of every round
// (PeerNode publishes once per round) and forwards to next, if any.
// Only the node's round-loop goroutine calls it.
type roundTimer struct {
	next core.ParamSink
	last time.Time
	ms   []float64
}

func (r *roundTimer) Publish(round, epoch int, params linalg.Vector) {
	now := time.Now()
	r.ms = append(r.ms, float64(now.Sub(r.last))/1e6)
	r.last = now
	if r.next != nil {
		r.next.Publish(round, epoch, params)
	}
}

// tcpCluster is one set of connected PeerNodes.
type tcpCluster struct {
	nodes       []*core.PeerNode
	timers      []*roundTimer
	connectSecs float64
}

// clusterOpts are the per-build observation switches.
type clusterOpts struct {
	feed     *serve.Feed // node 0 publishes into it every round
	observer bool        // node 0 runs with a metrics Observer
	tracer   bool        // every node records trace spans (TraceRounds)
}

// buildTCP constructs and connects the PeerNodes on loopback.
func (d *tcpData) buildTCP(o clusterOpts) (*tcpCluster, error) {
	c := &tcpCluster{}
	for id := 0; id < tcpNodes; id++ {
		t := &roundTimer{}
		cfg := core.PeerNodeConfig{Engine: d.engineConfig(id), ListenAddr: "127.0.0.1:0", Feed: t}
		if id == 0 {
			if o.feed != nil {
				t.next = o.feed
			}
			if o.observer {
				cfg.Obs = &obs.Observer{Reg: obs.NewRegistry()}
				if o.feed != nil {
					o.feed.SetObserver(cfg.Obs, id)
				}
			}
		}
		if o.tracer {
			cfg.Tracer = trace.New(trace.Config{Node: id, Rounds: 64})
		}
		n, err := core.NewPeerNode(cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.timers = append(c.timers, t)
	}
	t0 := time.Now()
	errs := make([]error, tcpNodes)
	var wg sync.WaitGroup
	for id, n := range c.nodes {
		addrs := map[int]string{}
		for _, j := range d.topo.Neighbors(id) {
			addrs[j] = c.nodes[j].Addr()
		}
		wg.Add(1)
		go func(id int, n *core.PeerNode) {
			defer wg.Done()
			errs[id] = n.Connect(addrs)
		}(id, n)
	}
	wg.Wait()
	c.connectSecs = time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			c.close()
			return nil, fmt.Errorf("connect: %w", err)
		}
	}
	return c, nil
}

func (c *tcpCluster) close() {
	for _, n := range c.nodes {
		_ = n.Close() // teardown of a finished loopback cluster; nothing to report
	}
}

// tcpTraining is the outcome of one fixed-horizon training.
type tcpTraining struct {
	secs      float64
	bytes     int64
	finals    []linalg.Vector
	roundMs   []float64
	linkDrops int64
	sendFails int64
}

// train runs every node for the horizon and collects the result; the
// cluster is closed afterwards.
func (c *tcpCluster) train(horizon int) (*tcpTraining, error) {
	defer c.close()
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	start := time.Now()
	for i, n := range c.nodes {
		c.timers[i].last = start
		wg.Add(1)
		go func(i int, n *core.PeerNode) {
			defer wg.Done()
			_, errs[i] = n.Run(horizon)
		}(i, n)
	}
	wg.Wait()
	tr := &tcpTraining{secs: time.Since(start).Seconds()}
	for i, n := range c.nodes {
		if errs[i] != nil {
			return nil, fmt.Errorf("node %d: %w", i, errs[i])
		}
		tr.bytes += n.BytesSent()
		tr.finals = append(tr.finals, n.Engine().Params())
		tr.roundMs = append(tr.roundMs, c.timers[i].ms...)
		tr.sendFails += n.SendFailures()
		for _, ls := range n.LinkStats() {
			tr.linkDrops += int64(ls.Disconnects + ls.Reconnects)
		}
	}
	return tr, nil
}
