package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/serve"
	"github.com/snapml/snap/internal/transport"
)

// The traced run drives a workload's rounds through the same public
// primitives, in the same order, as core.Cluster (sim-svm60) and
// core.PeerNode (tcp-*), placing a span around each call. It first runs
// the untraced program once and rejects its own numbers unless the
// traced replica reproduces that run's rounds, bytes and final iterates
// bit for bit.

// perLayer are the metrics a --trace 1 run reports, on every workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"dataset.generate_s", "s"},
		{"weights.optimize_s", "s"},
		{"linalg.symeigen_ms", "ms"},
		{"transport.connect_s", "s"},
	}
	for _, li := range layerInfo {
		defs = append(defs,
			metricDef{li.name + "_" + li.unit, li.unit},
			metricDef{li.name + ".calls", "count"},
			metricDef{li.name + ".busy_frac", "ratio"})
	}
	return append(defs,
		metricDef{"model.grad_ns_per_sample", "ns"},
		metricDef{"core.params_sent_frac", "ratio"},
		metricDef{"core.overlap_frac", "ratio"},
		metricDef{"codec.frame_bytes", "bytes"},
		metricDef{"transport.frames_missing", "count"},
		metricDef{"transport.link_drops", "count"},
		metricDef{"round.traced", "count"},
		metricDef{"round.traced_p50_ms", "ms"},
		metricDef{"round.unexplained_frac", "ratio"},
		metricDef{"model.predict_ns_per_row", "ns"},
		metricDef{"serve.predict_p99_ms", "ms"},
		metricDef{"serve.wait_frac", "ratio"},
		metricDef{"obs.metrics_overhead_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"},
		metricDef{"loadgen.lag_p99_ms", "ms"},
		metricDef{"bench.trace_overhead_frac", "ratio"},
		metricDef{"error_rate", "ratio"},
	)
}

// wireStats counts what the traced round loops put on the wire.
type wireStats struct {
	selected, total   int64 // parameters selected / offered over all updates
	frames, bytes     int64 // encoded frames and their bytes
	missing, linkDrop int64
}

func (w *wireStats) add(o wireStats) {
	w.selected += o.selected
	w.total += o.total
	w.frames += o.frames
	w.bytes += o.bytes
	w.missing += o.missing
	w.linkDrop += o.linkDrop
}

// setupLayers times the set-up layers the traced run reports.
type setupLayers struct {
	genSecs, wSecs, eigenMs, connectSecs float64
}

// symEigenMs times linalg.SymEigen of w (median of three).
func symEigenMs(w *linalg.Matrix) (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := linalg.SymEigen(w); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms), nil
}

// predictNsPerRow times model.PredictBatchInto on 32-row batches.
func predictNsPerRow(m model.Model, params linalg.Vector, rows [][]float64) float64 {
	const batch = 32
	dst := make([]int, batch)
	var sc model.PredictScratch
	var per []float64
	deadline := time.Now().Add(100 * time.Millisecond)
	for i := 0; len(per) < 20 || time.Now().Before(deadline); i++ {
		lo := (i * batch) % (len(rows) - batch)
		t0 := time.Now()
		model.PredictBatchInto(m, dst, params, rows[lo:lo+batch], &sc)
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(per)
}

// layerReport turns the ledger, wire counts and side measurements into
// the per-layer metrics.
type layerReport struct {
	st             layerStats
	wire           wireStats
	setup          setupLayers
	samplesPerGrad int                  // samples one ComputeGradient covers (a node's partition)
	side           [numLayers][]float64 // calls timed outside the traced rounds, seconds
	predictNs      float64
	load           loadResult
	obsFrac        float64
	traceFrac      float64
	benchFrac      float64 // traced replica vs untraced program, round p50
}

func (r *layerReport) emit(c *collector) {
	st := &r.st
	c.set("dataset.generate_s", "s", r.setup.genSecs)
	c.set("weights.optimize_s", "s", r.setup.wSecs)
	c.set("linalg.symeigen_ms", "ms", r.setup.eigenMs)
	c.set("transport.connect_s", "s", r.setup.connectSecs)
	for ly, calls := range r.side {
		st.self[ly] = append(st.self[ly], calls...)
		st.calls[ly] += len(calls)
	}
	sum := st.unexplainedFrac()
	for ly, li := range layerInfo {
		med := 0.0
		if len(st.self[ly]) > 0 {
			med = median(st.self[ly]) * li.scale
		}
		c.set(li.name+"_"+li.unit, li.unit, med)
		c.set(li.name+".calls", "count", float64(st.calls[ly]))
		frac := st.busy[ly] / math.Max(st.wall, 1e-12)
		c.set(li.name+".busy_frac", "ratio", frac)
		sum += frac
	}
	c.check(math.Abs(sum-1) < 1e-6, "layer busy shares plus the unexplained share sum to %.9f of the traced rounds, not 1", sum)
	gradNs := 0.0
	if len(st.self[lGrad]) > 0 {
		gradNs = median(st.self[lGrad]) * 1e9 / float64(r.samplesPerGrad)
	}
	c.set("model.grad_ns_per_sample", "ns", gradNs)
	c.set("core.params_sent_frac", "ratio", float64(r.wire.selected)/math.Max(float64(r.wire.total), 1))
	c.set("core.overlap_frac", "ratio", st.overlap/math.Max(st.transpo, 1e-12))
	c.set("codec.frame_bytes", "bytes", float64(r.wire.bytes)/math.Max(float64(r.wire.frames), 1))
	c.set("transport.frames_missing", "count", float64(r.wire.missing))
	c.set("transport.link_drops", "count", float64(r.wire.linkDrop))
	c.set("round.traced", "count", float64(st.rounds))
	tracedP50 := median(st.roundMs)
	c.set("round.traced_p50_ms", "ms", tracedP50)
	c.set("round.unexplained_frac", "ratio", st.unexplainedFrac())
	c.set("model.predict_ns_per_row", "ns", r.predictNs)
	c.check(hasTail(len(r.load.latMs), 99), "only %d predict samples for a p99", len(r.load.latMs))
	c.set("serve.predict_p99_ms", "ms", r.load.p99())
	p50 := percentile(r.load.latMs, 50)
	c.set("serve.wait_frac", "ratio", 1-r.predictNs/(p50*1e6))
	c.set("obs.metrics_overhead_frac", "ratio", r.obsFrac)
	c.set("trace.overhead_frac", "ratio", r.traceFrac)
	c.set("loadgen.lag_p99_ms", "ms", checkLoad(c, r.load))
	c.set("bench.trace_overhead_frac", "ratio", r.benchFrac)
	c.set("error_rate", "ratio", float64(c.failed+c.late)/math.Max(float64(c.attempted), 1))
	if st.checkErr != nil {
		c.check(false, "%v", st.checkErr)
	}
}

// overheadFrac alternates runs with a feature off and on, pairs times
// each, and returns best(on)/best(off) − 1 of their round p50s: the
// faster run of each side, which drops a run slowed by interference.
func overheadFrac(pairs int, runOnce func(on bool) (float64, error)) (float64, error) {
	bestOn, bestOff := math.Inf(1), math.Inf(1)
	for i := 0; i < pairs; i++ {
		for _, on := range []bool{i%2 == 1, i%2 == 0} {
			p50, err := runOnce(on)
			if err != nil {
				return 0, err
			}
			if on {
				bestOn = math.Min(bestOn, p50)
			} else {
				bestOff = math.Min(bestOff, p50)
			}
		}
	}
	return bestOn/bestOff - 1, nil
}

// ---- sim-svm60 -------------------------------------------------------

// simRunner mirrors one core.Cluster engine runner.
type simRunner struct {
	eng     *core.Engine
	nbrs    []int
	enc     []byte
	decoded []codec.Update
	tr      *track
	wire    wireStats
	cmd     chan [2]int // {phase, round}
	done    chan error
}

// simReplica mirrors core.Cluster's construction and round loop.
type simReplica struct {
	cfg     core.ClusterConfig
	net     *transport.Sim
	runners []*simRunner
	drv     *track
	clock   *roundClock
	xs      []linalg.Vector
	avg     linalg.Vector
}

// newSimReplica builds what core.NewCluster builds for cfg (weights
// supplied, per-node init, no failures).
func newSimReplica(cfg core.ClusterConfig, led *ledger) (*simReplica, float64, error) {
	t0 := time.Now()
	net := transport.NewSim(cfg.Topology, nil)
	connect := time.Since(t0).Seconds()
	r := &simReplica{cfg: cfg, net: net, drv: led.newTrack(-1, -1), clock: &roundClock{group: -1}}
	n := cfg.Topology.N()
	p := cfg.Model.NumParams()
	for i := 0; i < n; i++ {
		eng, err := core.NewEngine(core.EngineConfig{
			ID:             i,
			Model:          cfg.Model,
			Data:           cfg.Partitions[i],
			Alpha:          cfg.Alpha,
			WRow:           cfg.Weights.Row(i),
			Neighbors:      cfg.Topology.Neighbors(i),
			Policy:         cfg.Policy,
			FullSendRound0: cfg.PerNodeInit,
			Init:           cfg.Model.InitParams(cfg.Seed + int64(i+1)*1_000_003),
		})
		if err != nil {
			return nil, 0, err
		}
		nbrs := net.Neighbors(i)
		sort.Ints(nbrs)
		r.runners = append(r.runners, &simRunner{
			eng: eng, nbrs: nbrs, decoded: make([]codec.Update, len(nbrs)),
			tr: led.newTrack(-1, i), cmd: make(chan [2]int), done: make(chan error),
		})
		r.xs = append(r.xs, linalg.NewVector(p))
	}
	r.avg = linalg.NewVector(p)
	return r, connect, nil
}

func (r *simReplica) start() {
	for _, sr := range r.runners {
		go func(sr *simRunner) {
			for cmd := range sr.cmd {
				if cmd[0] == 1 {
					sr.done <- r.sendPhase(sr, cmd[1])
				} else {
					sr.done <- r.stepPhase(sr, cmd[1])
				}
			}
		}(sr)
	}
}

func (r *simReplica) stop() {
	for _, sr := range r.runners {
		close(sr.cmd)
	}
}

func (r *simReplica) phase(ph, round int) error {
	for _, sr := range r.runners {
		sr.cmd <- [2]int{ph, round}
	}
	var first error
	for _, sr := range r.runners {
		if err := <-sr.done; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *simReplica) sendPhase(sr *simRunner, round int) error {
	tr, e := sr.tr, sr.eng
	t := tr.begin()
	u, err := e.BuildUpdate(round)
	if err != nil {
		return err
	}
	t = tr.end(round, lBuild, t)
	sr.wire.selected += int64(len(u.Indices))
	sr.wire.total += int64(u.NumParams)
	if sr.enc, _, err = codec.EncodeTo(sr.enc, u); err != nil {
		return err
	}
	t = tr.end(round, lEncode, t)
	sr.wire.frames++
	sr.wire.bytes += int64(len(sr.enc))
	for _, j := range sr.nbrs {
		if err := r.net.Send(e.ID(), j, sr.enc); err != nil {
			return err
		}
	}
	tr.end(round, lSend, t)
	e.BeginIntegrate()
	t = tr.begin()
	e.ComputeGradient(round)
	tr.end(round, lGrad, t)
	return nil
}

func (r *simReplica) stepPhase(sr *simRunner, round int) error {
	tr, e := sr.tr, sr.eng
	g := tr.begin()
	var streamErr error
	n := 0
	r.net.CollectStream(e.ID(), func(from int, frame []byte) bool {
		if n == len(sr.decoded) {
			streamErr = fmt.Errorf("node %d received more than its degree %d frames", e.ID(), len(sr.decoded))
			return false
		}
		d := tr.begin()
		u := &sr.decoded[n]
		if err := codec.DecodeInto(u, frame); err != nil {
			streamErr = err
			return false
		}
		d = tr.end(round, lDecode, d)
		if err := e.IngestFrame(u); err != nil {
			streamErr = err
			return false
		}
		tr.end(round, lIngest, d)
		n++
		return true
	})
	tr.end(round, lGatherWait, g)
	if streamErr != nil {
		return streamErr
	}
	sr.wire.missing += int64(len(sr.nbrs) - n)
	t := tr.begin()
	e.StepMix(round)
	tr.end(round, lStepMix, t)
	return nil
}

// meanParams mirrors Cluster.meanParamsInto through Engine.ParamsInto.
func (r *simReplica) meanParams() linalg.Vector {
	r.avg.Fill(0)
	for i, sr := range r.runners {
		r.avg.AddInPlace(sr.eng.ParamsInto(r.xs[i]))
	}
	return linalg.ScaleTo(r.avg, 1/float64(len(r.runners)), r.avg)
}

// run mirrors Cluster.Run (EvalEvery 1, no OnIteration, no observer).
func (r *simReplica) run() (*core.Result, error) {
	cfg := r.cfg
	det := cfg.Convergence
	res := &core.Result{Scheme: cfg.Policy.String()}
	r.start()
	defer r.stop()
	drv := r.drv
	for round := 0; round < cfg.MaxIterations; round++ {
		rs := drv.begin()
		r.net.BeginRound(round)
		if err := r.phase(1, round); err != nil {
			return nil, err
		}
		if err := r.phase(2, round); err != nil {
			return nil, err
		}
		var loss float64
		for _, sr := range r.runners {
			t := drv.begin()
			loss += sr.eng.LocalLoss()
			drv.end(round, lLoss, t)
		}
		t := drv.begin()
		avg := r.meanParams()
		var consensus float64
		for i := range r.runners {
			if d := linalg.DistInf(r.xs[i], avg); d > consensus {
				consensus = d
			}
		}
		t = drv.end(round, lConsensus, t)
		model.Accuracy(cfg.Model, r.meanParams(), cfg.Test)
		end := drv.end(round, lEval, t)
		res.Iterations = round + 1
		r.clock.record(round, rs, end)
		if det.Observe(loss, consensus) {
			res.Converged = true
			break
		}
	}
	res.FinalAccuracy = model.Accuracy(cfg.Model, r.meanParams(), cfg.Test)
	res.TotalCost = r.net.Ledger().Total()
	return res, nil
}

func (r *simReplica) wire() wireStats {
	var w wireStats
	for _, sr := range r.runners {
		w.add(sr.wire)
	}
	w.linkDrop = r.net.Dropped()
	return w
}

// traceSim is the traced sim-svm60 run.
func traceSim(cfg runConfig, c *collector) error {
	s, err := buildSim()
	if err != nil {
		return err
	}
	rep := layerReport{setup: setupLayers{genSecs: s.genSecs, wSecs: s.wSecs}, samplesPerGrad: s.parts[0].Len()}
	if rep.setup.eigenMs, err = symEigenMs(s.w); err != nil {
		return err
	}

	// The untraced program, once, as the reference.
	var timer jobTimer
	ccfg := s.clusterConfig(jobSeed(cfg.seed, 0))
	cl, err := core.NewCluster(timer.hook(ccfg))
	if err != nil {
		return err
	}
	timer.begin()
	ref, err := cl.Run()
	if err != nil {
		return err
	}
	var refFinals []linalg.Vector
	for _, e := range cl.Engines() {
		refFinals = append(refFinals, e.Params())
	}

	led := newLedger()
	var clocks []*roundClock
	// Traced jobs until a share of the time is spent, at most
	// maxTracedJobs: a job holds ~40k spans in memory.
	const maxTracedJobs = 8
	deadline := time.Now().Add(time.Duration(cfg.seconds * 0.5 * float64(time.Second)))
	var last *simReplica
	for j := 0; j == 0 || (j < maxTracedJobs && time.Now().Before(deadline)); j++ {
		rcfg := s.clusterConfig(jobSeed(cfg.seed, j))
		rp, connect, err := newSimReplica(rcfg, led)
		if err != nil {
			return err
		}
		res, err := rp.run()
		if err != nil {
			return err
		}
		if j == 0 {
			rep.setup.connectSecs = connect
			c.check(res.Iterations == ref.Iterations, "traced rounds_to_target %d, untraced %d", res.Iterations, ref.Iterations)
			c.check(res.TotalCost == ref.TotalCost, "traced bytes_to_target %g, untraced %g", res.TotalCost, ref.TotalCost)
			for i, sr := range rp.runners {
				c.check(bitwiseEqual(sr.eng.Params(), refFinals[i]), "traced node %d final iterate differs from the untraced run", i)
			}
		}
		c.attempted += rp.net.Ledger().Messages()
		c.failed += rp.net.Dropped()
		clocks = append(clocks, rp.clock)
		rep.wire.add(rp.wire())
		last = rp
	}
	rep.st = led.analyse(clocks)

	// Observer overhead: the same job with and without a metrics Observer.
	if rep.obsFrac, err = overheadFrac(2, func(on bool) (float64, error) {
		var jt jobTimer
		cc := jt.hook(s.clusterConfig(jobSeed(cfg.seed, 0)))
		if on {
			cc.Obs = &obs.Observer{Reg: obs.NewRegistry()}
		}
		cl, err := core.NewCluster(cc)
		if err != nil {
			return 0, err
		}
		jt.begin()
		if _, err := cl.Run(); err != nil {
			return 0, err
		}
		return median(jt.roundMs), nil
	}); err != nil {
		return err
	}
	// core.Cluster has no tracer to switch, so trace.overhead_frac is 0 here.
	// The benchmark's own spans: the traced replica against core.Cluster.
	if rep.benchFrac, err = overheadFrac(2, func(traced bool) (float64, error) {
		cc := s.clusterConfig(jobSeed(cfg.seed, 0))
		if traced {
			rp, _, err := newSimReplica(cc, newLedger())
			if err != nil {
				return 0, err
			}
			if _, err := rp.run(); err != nil {
				return 0, err
			}
			var ms []float64
			for _, r := range rp.clock.rounds {
				ms = append(ms, float64(r.end-r.start)/1e6)
			}
			return median(ms), nil
		}
		var jt jobTimer
		cl, err := core.NewCluster(jt.hook(cc))
		if err != nil {
			return 0, err
		}
		jt.begin()
		if _, err := cl.Run(); err != nil {
			return 0, err
		}
		return median(jt.roundMs), nil
	}); err != nil {
		return err
	}

	params := last.meanParams().Clone()
	rows := testRows(s.test)
	rep.predictNs = predictNsPerRow(s.mdl, params, rows)
	var pub float64
	if rep.load, pub, err = serveModel(s.mdl, params, rows, cfg.seed, serveDuration(cfg)); err != nil {
		return err
	}
	rep.side[lPublish] = []float64{pub}
	rep.emit(c)
	return nil
}

// ---- tcp-* -------------------------------------------------------------

// peerReplica mirrors one core.PeerNode's pipelined round loop.
type peerReplica struct {
	eng         *core.Engine
	peer        *transport.Peer
	sink        core.ParamSink
	main, grad  *track
	clock       *roundClock
	needRefresh atomic.Bool
	gradCmd     chan int
	gradDone    chan struct{}
	enc         []byte
	dec         codec.Update
	wire        wireStats
	sendFails   int64
}

const roundTimeout = 5 * time.Second // PeerNode's default

// newPeerReplica builds what core.NewPeerNode builds for ecfg.
func newPeerReplica(ecfg core.EngineConfig, o *obs.Observer, sink core.ParamSink, led *ledger) (*peerReplica, error) {
	ecfg.Obs = o
	eng, err := core.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}
	peer, err := transport.NewPeer(ecfg.ID, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if o != nil {
		peer.SetObserver(o)
	}
	pr := &peerReplica{
		eng: eng, peer: peer, sink: sink,
		main: led.newTrack(ecfg.ID, ecfg.ID), grad: led.newTrack(ecfg.ID, ecfg.ID),
		clock:   &roundClock{group: ecfg.ID},
		gradCmd: make(chan int), gradDone: make(chan struct{}, 1),
	}
	peer.SetReconnectHandler(func(int) { pr.needRefresh.Store(true) })
	go func() {
		for round := range pr.gradCmd {
			t := pr.grad.begin()
			pr.eng.ComputeGradient(round)
			pr.grad.end(round, lGrad, t)
			pr.gradDone <- struct{}{}
		}
	}()
	return pr, nil
}

func (pr *peerReplica) close() {
	close(pr.gradCmd)
	_ = pr.peer.Close() // loopback teardown after the run; nothing to report
}

// run mirrors PeerNode.Run with the pipelined loop and EvalEvery 1.
func (pr *peerReplica) run(horizon int) error {
	tr := pr.main
	for round := 0; round < horizon; round++ {
		rs := tr.begin()
		if pr.needRefresh.Swap(false) {
			pr.eng.RequestFullSend()
		}
		pr.eng.BeginIntegrate()
		pr.gradCmd <- round
		t := tr.begin()
		u, err := pr.eng.BuildUpdate(round)
		if err != nil {
			<-pr.gradDone
			return err
		}
		t = tr.end(round, lBuild, t)
		pr.wire.selected += int64(len(u.Indices))
		pr.wire.total += int64(u.NumParams)
		if pr.enc, _, err = codec.EncodeTo(pr.enc, u); err != nil {
			<-pr.gradDone
			return err
		}
		t = tr.end(round, lEncode, t)
		pr.wire.frames++
		pr.wire.bytes += int64(len(pr.enc))
		if err := pr.peer.Broadcast(round, pr.enc); err != nil {
			pr.sendFails++
		}
		t = tr.end(round, lSend, t)
		var ingestErr error
		got, want := pr.peer.GatherStream(round, roundTimeout, func(from int, f []byte) bool {
			d := tr.begin()
			err := codec.DecodeInto(&pr.dec, f)
			transport.RecycleFrame(f)
			if err != nil {
				return true // PeerNode drops a corrupt frame and carries on
			}
			d = tr.end(round, lDecode, d)
			if err := pr.eng.IngestFrame(&pr.dec); err != nil {
				ingestErr = err
				return false
			}
			tr.end(round, lIngest, d)
			return true
		})
		tr.end(round, lGatherWait, t)
		pr.wire.missing += int64(want - got)
		<-pr.gradDone
		if ingestErr != nil {
			return ingestErr
		}
		t = tr.begin()
		iter := pr.eng.StepMix(round)
		t = tr.end(round, lStepMix, t)
		if pr.sink != nil {
			pr.sink.Publish(round, 0, iter)
			t = tr.end(round, lPublish, t)
		}
		pr.peer.ForgetRound(round)
		pr.eng.LocalLoss()
		end := tr.end(round, lLoss, t)
		pr.clock.record(round, rs, end)
	}
	return nil
}

// traceTCP is the traced run of a TCP workload.
func traceTCP(cfg runConfig, c *collector) error {
	spec := specFor(cfg.workload)
	d, err := buildTCPData(spec, jobSeed(cfg.seed, 0))
	if err != nil {
		return err
	}
	rep := layerReport{setup: setupLayers{genSecs: d.genSecs, wSecs: d.wSecs}, samplesPerGrad: d.parts[0].Len()}
	if rep.setup.eigenMs, err = symEigenMs(d.w); err != nil {
		return err
	}
	rows := testRows(d.test)

	// The untraced program, once, as the reference, configured as the
	// workload deploys it.
	opts := clusterOpts{observer: spec.observer0}
	if spec.serveLive {
		opts.feed = serve.NewFeed()
	}
	cl, err := d.buildTCP(opts)
	if err != nil {
		return err
	}
	ref, err := cl.train(spec.horizon)
	if err != nil {
		return err
	}

	// The traced replica, under the same serving load as the untraced
	// workload when it serves while training.
	led := newLedger()
	var live *liveServe
	var feed *serve.Feed
	if spec.serveLive {
		feed = serve.NewFeed()
		if live, err = startLiveServe(feed, d, rows, cfg.seed); err != nil {
			return err
		}
	}
	reps, err := buildPeerReplicas(d, spec, feed, led, &rep)
	if err == nil {
		err = runPeerReplicas(reps, spec.horizon)
	}
	if live != nil {
		rep.load = live.stop()
	}
	if err != nil {
		if live != nil {
			live.g.Close()
		}
		closePeerReplicas(reps)
		return err
	}
	var clocks []*roundClock
	var bytes int64
	for i, pr := range reps {
		clocks = append(clocks, pr.clock)
		bytes += pr.peer.BytesSent()
		c.check(bitwiseEqual(pr.eng.Params(), ref.finals[i]), "traced node %d final iterate differs from the untraced run", i)
		rep.wire.add(pr.wire)
		for _, ls := range pr.peer.Stats() {
			rep.wire.linkDrop += int64(ls.Disconnects + ls.Reconnects)
		}
		c.attempted += int64(spec.horizon * (tcpNodes - 1))
		c.failed += pr.sendFails
	}
	c.failed += rep.wire.linkDrop
	c.check(bytes == ref.bytes, "traced bytes_to_target %d, untraced %d", bytes, ref.bytes)
	finals := reps[0].eng.Params()
	if live != nil {
		if rep.load.wrong, err = live.mismatches(d.mdl, finals, rows); err != nil {
			closePeerReplicas(reps)
			return err
		}
	}
	// The checks the untraced run makes on the trained models, timed:
	// each node's test accuracy and the nodes' consensus residual.
	var xs []linalg.Vector
	for _, pr := range reps {
		xs = append(xs, pr.eng.Params())
	}
	closePeerReplicas(reps)
	for _, x := range xs {
		t0 := time.Now()
		model.Accuracy(d.mdl, x, d.test)
		rep.side[lEval] = append(rep.side[lEval], time.Since(t0).Seconds())
	}
	t0 := time.Now()
	avg := linalg.NewVector(len(finals))
	for _, x := range xs {
		avg.AddInPlace(x)
	}
	linalg.ScaleTo(avg, 1/float64(len(xs)), avg)
	for _, x := range xs {
		linalg.DistInf(x, avg)
	}
	rep.side[lConsensus] = append(rep.side[lConsensus], time.Since(t0).Seconds())
	rep.st = led.analyse(clocks)

	// Observer and trace overheads: the real PeerNode with each switched
	// off and on, alternating, without serving load.
	abHorizon := max(spec.horizon/2, 30)
	ab := func(o clusterOpts) (float64, error) {
		cl, err := d.buildTCP(o)
		if err != nil {
			return 0, err
		}
		tr, err := cl.train(abHorizon)
		if err != nil {
			return 0, err
		}
		return median(tr.roundMs), nil
	}
	if rep.obsFrac, err = overheadFrac(2, func(on bool) (float64, error) { return ab(clusterOpts{observer: on}) }); err != nil {
		return err
	}
	if rep.traceFrac, err = overheadFrac(2, func(on bool) (float64, error) { return ab(clusterOpts{tracer: on}) }); err != nil {
		return err
	}
	// The benchmark's own spans: the traced replica against PeerNode.
	if rep.benchFrac, err = overheadFrac(2, func(traced bool) (float64, error) {
		if !traced {
			return ab(clusterOpts{})
		}
		led := newLedger()
		var scratch layerReport
		reps, err := buildPeerReplicas(d, tcpSpec{}, nil, led, &scratch)
		if err != nil {
			return 0, err
		}
		defer closePeerReplicas(reps)
		if err := runPeerReplicas(reps, abHorizon); err != nil {
			return 0, err
		}
		var ms []float64
		for _, pr := range reps {
			for _, r := range pr.clock.rounds {
				ms = append(ms, float64(r.end-r.start)/1e6)
			}
		}
		return median(ms), nil
	}); err != nil {
		return err
	}

	rep.predictNs = predictNsPerRow(d.mdl, finals, rows)
	if live == nil {
		var pub float64
		if rep.load, pub, err = serveModel(d.mdl, finals, rows, cfg.seed, serveDuration(cfg)); err != nil {
			return err
		}
		rep.side[lPublish] = []float64{pub}
	}
	rep.emit(c)
	return nil
}

func buildPeerReplicas(d *tcpData, spec tcpSpec, feed *serve.Feed, led *ledger, rep *layerReport) ([]*peerReplica, error) {
	var reps []*peerReplica
	for id := 0; id < tcpNodes; id++ {
		var o *obs.Observer
		var sink core.ParamSink
		if id == 0 {
			if spec.observer0 {
				o = &obs.Observer{Reg: obs.NewRegistry()}
			}
			if feed != nil {
				feed.SetObserver(o, id)
				sink = feed
			}
		}
		pr, err := newPeerReplica(d.engineConfig(id), o, sink, led)
		if err != nil {
			closePeerReplicas(reps)
			return nil, err
		}
		reps = append(reps, pr)
	}
	t0 := time.Now()
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for id, pr := range reps {
		addrs := map[int]string{}
		for _, j := range d.topo.Neighbors(id) {
			addrs[j] = reps[j].peer.Addr()
		}
		wg.Add(1)
		go func(id int, pr *peerReplica) {
			defer wg.Done()
			errs[id] = pr.peer.Connect(addrs, 10*time.Second)
		}(id, pr)
	}
	wg.Wait()
	rep.setup.connectSecs = time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			closePeerReplicas(reps)
			return nil, err
		}
	}
	return reps, nil
}

func runPeerReplicas(reps []*peerReplica, horizon int) error {
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, pr := range reps {
		wg.Add(1)
		go func(i int, pr *peerReplica) {
			defer wg.Done()
			errs[i] = pr.run(horizon)
		}(i, pr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("traced node %d: %w", i, err)
		}
	}
	return nil
}

func closePeerReplicas(reps []*peerReplica) {
	for _, pr := range reps {
		pr.close()
	}
}
