package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/snapml/snap/internal/baseline"
	"github.com/snapml/snap/internal/core"
	"github.com/snapml/snap/internal/dataset"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/metrics"
	"github.com/snapml/snap/internal/model"
	"github.com/snapml/snap/internal/serve"
)

const (
	// setupRepeats is the fewest times a run sets its workload up, and
	// setupMinSecs the least time it spends doing so; setup_s is the
	// median. A cheap set-up (tcp-*, tens of ms) repeats a dozen times
	// or more, so one set-up the host slowed does not move the median.
	setupRepeats = 3
	setupMinSecs = 1.0
	// serveShare is the part of --seconds a train-then-serve workload
	// spends serving its trained model.
	serveShare = 0.4
	// minJobs is the fewest trainings a run medians over.
	minJobs = 3
	// accTolerance bounds how far a converged model's test accuracy may
	// sit from the single-worker baseline on the same data, and how far
	// nodes may disagree.
	accTolerance = 0.02
	// mlpAccTolerance is the same bound for tcp-mlp3, which stops at a
	// fixed horizon far from convergence: there decentralized SNAP trails
	// single-worker gradient descent by up to ~0.08 depending on the init,
	// while a broken trainer sits near chance (0.1), far below both.
	mlpAccTolerance = 0.1
	// lagLimitMs invalidates a run whose load generator, at its 99th
	// percentile, ran this late: five latency limits behind, the load was
	// not offered at the stated rate. (Go timers fire about 0.5 ms late at
	// the median, and a loaded VM adds stalls of a few ms; that lag is
	// charged to latency like any other delay.)
	lagLimitMs = 50.0
)

// moreSetups reports whether a run that has timed setups should set its
// workload up again.
func moreSetups(setups []float64) bool {
	total := 0.0
	for _, s := range setups {
		total += s
	}
	return len(setups) < setupRepeats || total < setupMinSecs
}

// jobStat is one training's end-to-end outcome.
type jobStat struct {
	secs     float64
	rounds   int
	bytes    float64
	accuracy float64
}

// summarizeJobs sets the training metrics from the run's jobs: medians
// across jobs, round percentiles pooled over every round of every job.
func summarizeJobs(c *collector, jobs []jobStat, roundMs []float64, samplesPerRound int) {
	var secs, rounds, bytes, acc, rate []float64
	for _, j := range jobs {
		secs = append(secs, j.secs)
		rounds = append(rounds, float64(j.rounds))
		bytes = append(bytes, j.bytes)
		acc = append(acc, j.accuracy)
		rate = append(rate, float64(j.rounds*samplesPerRound)/j.secs)
	}
	c.set("time_to_target_s", "s", median(secs))
	c.set("rounds_to_target", "rounds", median(rounds))
	c.set("bytes_to_target", "bytes", median(bytes))
	c.set("accuracy", "ratio", median(acc))
	c.set("samples_per_s", "1/s", median(rate))
	c.check(hasTail(len(roundMs), 95), "only %d round samples for round_p95_ms", len(roundMs))
	c.set("round_p50_ms", "ms", percentile(roundMs, 50))
	c.set("round_p95_ms", "ms", percentile(roundMs, 95))
}

// summarizeLoad sets the predict metric and checks the load phase.
func summarizeLoad(c *collector, lr loadResult) {
	c.set("predict_p50_ms", "ms", percentile(lr.latMs, 50))
	checkLoad(c, lr)
}

// checkLoad counts the load phase's operations and rejects it when the
// generator fell behind or an answer was wrong. It returns the lag p99.
// Requests refused or failed by the gateway count as failed; correct
// answers over the latency limit count as late (in error_rate, not in
// failed): how many there are depends on when the host stalls the
// process, which the latency metrics already measure.
func checkLoad(c *collector, lr loadResult) float64 {
	lag := percentile(lr.lagMs, 99)
	c.check(lag <= lagLimitMs, "load generator lag p99 %.3g ms exceeds %g ms: the offered rate was not met", lag, lagLimitMs)
	c.check(lr.wrong == 0, "%d predictions disagree with model.Predict on the served parameters", lr.wrong)
	c.attempted += lr.attempted
	c.failed += lr.refused + lr.errored
	c.late += lr.overLimit
	return lag
}

// rssSampler tracks the resident set size while a run measures. Set-up
// garbage is collected and returned to the OS first, so the figure is
// the running system's footprint rather than when the collector happened
// to run during set-up.
type rssSampler struct {
	stop chan struct{}
	done chan float64
}

func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	r := &rssSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := rssMB()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				r.done <- math.Max(peak, rssMB())
				return
			case <-t.C:
				peak = math.Max(peak, rssMB())
			}
		}
	}()
	return r
}

// peakMB stops the sampler and returns the largest RSS it saw.
func (r *rssSampler) peakMB() float64 {
	close(r.stop)
	return <-r.done
}

// rssMB reads the process's current resident set size.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// expectLabels is model.Predict of params on every row.
func expectLabels(m model.Model, params linalg.Vector, rows [][]float64) []int {
	out := make([]int, len(rows))
	for i, x := range rows {
		out[i] = m.Predict(params, x)
	}
	return out
}

// testRows are the feature rows of ds, the pool predict requests draw from.
func testRows(ds *dataset.Dataset) [][]float64 {
	rows := make([][]float64, ds.Len())
	for i := range rows {
		rows[i] = ds.Samples[i].X
	}
	return rows
}

// serveModel deploys params behind a default gateway (timing the
// Feed.Publish that installs them) and drives the open loop at it for d,
// checking every answer against model.Predict.
func serveModel(m model.Model, params linalg.Vector, rows [][]float64, seed int64, d time.Duration) (lr loadResult, publishSecs float64, err error) {
	feed := serve.NewFeed()
	t0 := time.Now()
	feed.Publish(0, 0, params)
	publishSecs = time.Since(t0).Seconds()
	g, err := serve.NewGateway(serve.Config{Model: m, Features: len(rows[0]), Feed: feed})
	if err != nil {
		return loadResult{}, 0, err
	}
	defer g.Close()
	spec := defaultLoad(rows)
	spec.expect = expectLabels(m, params, rows)
	return serveFor(g, spec, seed, d), publishSecs, nil
}

// serveDuration is how long a train-then-serve run serves.
func serveDuration(cfg runConfig) time.Duration {
	return time.Duration(cfg.seconds * serveShare * float64(time.Second))
}

// liveServe is the deployed edge node's serving side: a default gateway
// on the feed node 0 publishes into every round, under an open loop that
// runs until stop.
type liveServe struct {
	feed *serve.Feed
	g    *serve.Gateway
	quit chan struct{}
	done chan loadResult
}

// startLiveServe starts a gateway on feed, which node 0 publishes into,
// loaded with d's initial parameters as a node serves before its first
// round, and the open loop against it.
func startLiveServe(feed *serve.Feed, d *tcpData, rows [][]float64, seed int64) (*liveServe, error) {
	ls := &liveServe{feed: feed, quit: make(chan struct{}), done: make(chan loadResult, 1)}
	ls.feed.Publish(-1, 0, d.init)
	var err error
	if ls.g, err = serve.NewGateway(serve.Config{Model: d.mdl, Features: d.train.NumFeature, Feed: ls.feed}); err != nil {
		return nil, err
	}
	go func() { ls.done <- runOpenLoop(ls.g, defaultLoad(rows), seed, ls.quit) }()
	return ls, nil
}

// stop ends the open loop and returns what it measured.
func (ls *liveServe) stop() loadResult {
	close(ls.quit)
	return <-ls.done
}

// mismatches stops the gateway after checking it: it must answer every
// row exactly as model.Predict does on params, node 0's final iterate.
func (ls *liveServe) mismatches(m model.Model, params linalg.Vector, rows [][]float64) (int64, error) {
	defer ls.g.Close()
	want := expectLabels(m, params, rows)
	got := make([]int, len(rows))
	if _, err := ls.g.PredictManyInto(context.Background(), got, rows); err != nil {
		return 0, fmt.Errorf("final predict: %w", err)
	}
	var bad int64
	for i := range want {
		if got[i] != want[i] {
			bad++
		}
	}
	return bad, nil
}

// centralAccuracy is the single-worker gradient-descent baseline on the
// pooled partitions.
func centralAccuracy(m model.Model, parts []*dataset.Dataset, test *dataset.Dataset, alpha float64, rounds int, det metrics.ConvergenceDetector, seed int64) (float64, error) {
	res, err := baseline.RunCentralized(baseline.CentralizedConfig{
		Model: m, Partitions: parts, Test: test, Alpha: alpha,
		MaxIterations: rounds, Convergence: det, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	return res.FinalAccuracy, nil
}

// runSim is the untraced sim-svm60 run: Fig. 6 jobs on core.Cluster
// until the time is spent, then the last job's model served.
func runSim(cfg runConfig, c *collector) error {
	var s *simSetup
	var setups []float64
	var cl *core.Cluster
	var timer jobTimer
	for moreSetups(setups) {
		t0 := time.Now()
		var err error
		if s, err = buildSim(); err != nil {
			return err
		}
		if cl, err = core.NewCluster(timer.hook(s.clusterConfig(jobSeed(cfg.seed, 0)))); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c.set("setup_s", "s", median(setups))
	rss := startRSS()

	trainFor := time.Duration(cfg.seconds * (1 - serveShare) * float64(time.Second))
	start := time.Now()
	var jobs []jobStat
	var last linalg.Vector
	for j := 0; ; j++ {
		if j > 0 {
			var err error
			if cl, err = core.NewCluster(timer.hook(s.clusterConfig(jobSeed(cfg.seed, j)))); err != nil {
				return err
			}
		}
		timer.begin()
		res, err := cl.Run()
		if err != nil {
			return err
		}
		secs := time.Since(timer.start).Seconds()
		c.check(res.Converged, "job %d did not meet the Fig. 6 rule within %d rounds", j, simMaxRounds)
		jobs = append(jobs, jobStat{secs: secs, rounds: res.Iterations, bytes: res.TotalCost, accuracy: res.FinalAccuracy})
		c.attempted += cl.Network().Ledger().Messages()
		c.failed += cl.Network().Dropped()
		last = cl.AverageParams()
		if len(jobs) >= minJobs && time.Since(start) >= trainFor {
			break
		}
	}
	summarizeJobs(c, jobs, timer.roundMs, s.train.Len())

	lr, _, err := serveModel(s.mdl, last, testRows(s.test), cfg.seed, serveDuration(cfg))
	if err != nil {
		return err
	}
	summarizeLoad(c, lr)
	c.set("peak_rss_mb", "MB", rss.peakMB())

	// EXTRA is exact: every job's consensus model must match the
	// centralized optimum's accuracy (Fig. 7).
	want, err := centralAccuracy(s.mdl, s.parts, s.test, simAlpha, simMaxRounds,
		metrics.ConvergenceDetector{RelTol: 1e-3, Patience: 3}, cfg.seed)
	if err != nil {
		return err
	}
	for i, j := range jobs {
		c.check(math.Abs(j.accuracy-want) <= accTolerance, "job %d accuracy %.4f vs centralized %.4f (tolerance %g)", i, j.accuracy, want, accTolerance)
	}
	return nil
}

// jobTimer records one cluster job's round boundaries through the
// Cluster's OnIteration hook (called once per round, on the goroutine
// running Cluster.Run).
type jobTimer struct {
	start   time.Time
	last    time.Time
	roundMs []float64
}

func (t *jobTimer) hook(cfg core.ClusterConfig) core.ClusterConfig {
	cfg.OnIteration = func(int, *core.Cluster) {
		now := time.Now()
		t.roundMs = append(t.roundMs, float64(now.Sub(t.last))/1e6)
		t.last = now
	}
	return cfg
}

func (t *jobTimer) begin() { t.start = time.Now(); t.last = t.start }

// runTCP is the untraced run of a TCP workload: fixed-horizon trainings
// of three PeerNodes on loopback, each from its own shared init, until
// the time is spent. PeerNode.Run cannot restart, so every training
// builds and connects fresh nodes.
func runTCP(cfg runConfig, c *collector) error {
	spec := specFor(cfg.workload)
	opts := clusterOpts{observer: spec.observer0}
	if spec.serveLive {
		opts.feed = serve.NewFeed()
	}
	var setups []float64
	var d *tcpData
	var cl *tcpCluster
	for moreSetups(setups) {
		if cl != nil {
			cl.close()
		}
		t0 := time.Now()
		var err error
		if d, err = buildTCPData(spec, jobSeed(cfg.seed, 0)); err != nil {
			return err
		}
		if cl, err = d.buildTCP(opts); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	c.set("setup_s", "s", median(setups))
	rows := testRows(d.test)
	rss := startRSS()

	var live *liveServe
	if spec.serveLive {
		var err error
		if live, err = startLiveServe(opts.feed, d, rows, cfg.seed); err != nil {
			cl.close()
			return err
		}
	}

	share := 1 - serveShare
	if spec.serveLive {
		share = 1
	}
	trainFor := time.Duration(cfg.seconds * share * float64(time.Second))
	start := time.Now()
	var jobs []jobStat
	var roundMs []float64
	var trainings []*tcpTraining
	for j := 0; ; j++ {
		var err error
		if j > 0 {
			// Later trainings keep the corpus and weights and start the
			// nodes afresh from the next init.
			d.init = d.mdl.InitParams(jobSeed(cfg.seed, j))
			cl, err = d.buildTCP(opts)
		}
		if err == nil {
			var tr *tcpTraining
			if tr, err = cl.train(spec.horizon); err == nil {
				jobs = append(jobs, jobStat{secs: tr.secs, rounds: spec.horizon, bytes: float64(tr.bytes),
					accuracy: model.Accuracy(d.mdl, tr.finals[0], d.test)})
				roundMs = append(roundMs, tr.roundMs...)
				c.attempted += int64(spec.horizon * tcpNodes * (tcpNodes - 1))
				c.failed += tr.sendFails + tr.linkDrops
				trainings = append(trainings, tr)
			}
		}
		if err != nil {
			if live != nil {
				live.stop()
				live.g.Close()
			}
			return err
		}
		if len(jobs) >= minJobs && time.Since(start) >= trainFor {
			break
		}
	}
	summarizeJobs(c, jobs, roundMs, d.train.Len())
	last := trainings[len(trainings)-1]

	if live != nil {
		summarizeLoad(c, live.stop())
		bad, err := live.mismatches(d.mdl, last.finals[0], rows)
		if err != nil {
			return err
		}
		c.check(bad == 0, "%d of %d gateway predictions differ from model.Predict on node 0's final parameters", bad, len(rows))
	} else {
		lr, _, err := serveModel(d.mdl, last.finals[0], rows, cfg.seed, serveDuration(cfg))
		if err != nil {
			return err
		}
		summarizeLoad(c, lr)
	}
	c.set("peak_rss_mb", "MB", rss.peakMB())

	// The trained models, checked once the measuring is over: in every
	// training the nodes agree on test accuracy, and in the first, node 0
	// matches a single-worker run from the same init at the same horizon.
	for j, tr := range trainings {
		for i := 1; i < len(tr.finals); i++ {
			acc := model.Accuracy(d.mdl, tr.finals[i], d.test)
			c.check(math.Abs(acc-jobs[j].accuracy) <= accTolerance, "training %d: node %d accuracy %.4f vs node 0 %.4f", j, i, acc, jobs[j].accuracy)
		}
	}
	noStop := metrics.ConvergenceDetector{RelTol: 1e-15, Patience: 1 << 30}
	want, err := centralAccuracy(d.mdl, d.parts, d.test, spec.alpha, spec.horizon, noStop, jobSeed(cfg.seed, 0))
	if err != nil {
		return err
	}
	tol := accTolerance
	if spec.digits {
		tol = mlpAccTolerance
	}
	c.check(math.Abs(jobs[0].accuracy-want) <= tol, "node 0 accuracy %.4f vs single-worker %.4f at %d rounds", jobs[0].accuracy, want, spec.horizon)
	return nil
}

func bitwiseEqual(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
