package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/snapml/snap/internal/serve"
)

// loadSpec configures the open-loop predict generator: independent users
// sending single-row requests on a fixed schedule, whether or not earlier
// requests have finished.
type loadSpec struct {
	rate  float64       // requests per second
	limit time.Duration // latency limit; slower answers count as late
	slots int           // in-flight bound: worker goroutines (and queue depth) of the client
	rows  [][]float64   // candidate feature rows (the test split)
	// expect, when set, gives the label a correct answer must carry for
	// row i (a model that does not change while serving).
	expect []int
}

// loadResult is what one open-loop phase measured.
type loadResult struct {
	latMs []float64 // per request, from its due time to its answer; +Inf when failed or refused
	// windowP99Ms holds the p99 latency of each whole second of the
	// schedule, by due time.
	windowP99Ms []float64
	lagMs       []float64 // per request, how late the generator sent it
	attempted   int64
	refused     int64 // found every client slot busy
	errored     int64 // the gateway returned an error
	overLimit   int64 // answered, but later than spec.limit after the due time
	wrong       int64 // answered with a label other than spec.expect
}

// p99 is the predict tail a run reports: the median over whole seconds of
// each second's p99. At 2000 requests a second every window has 20
// requests beyond its p99, so each window meets the ten-beyond rule; the
// median over windows reports the typical second's tail rather than the
// one second the VM's host stalled. Without a whole window it falls back
// to the pooled p99.
func (lr loadResult) p99() float64 {
	if len(lr.windowP99Ms) > 0 {
		return median(lr.windowP99Ms)
	}
	return percentile(lr.latMs, 99)
}

// defaultLoad is the serving traffic every workload uses.
func defaultLoad(rows [][]float64) loadSpec {
	return loadSpec{rate: 2000, limit: 10 * time.Millisecond, slots: 64, rows: rows}
}

// runOpenLoop drives g from one generator goroutine until stop closes.
// Requests are due every 1/rate seconds from the start; each is timed
// from its due time, so a stall also charges the requests queued behind
// it. A request finding every slot busy is refused.
func runOpenLoop(g *serve.Gateway, spec loadSpec, seed int64, stop <-chan struct{}) loadResult {
	type job struct {
		row int
		i   int // index in the schedule
		due time.Time
	}
	jobs := make(chan job, spec.slots) // sized to the in-flight bound: a full queue means refuse
	perWindow := int(spec.rate)        // requests due in one second
	type sample struct {
		i  int
		ms float64
	}
	type workerOut struct {
		lat                  []sample
		errored, over, wrong int64
	}
	outs := make([]workerOut, spec.slots)
	var wg sync.WaitGroup
	for w := 0; w < spec.slots; w++ {
		wg.Add(1)
		go func(o *workerOut) {
			defer wg.Done()
			ctx := context.Background()
			for j := range jobs {
				label, _, err := g.Predict(ctx, spec.rows[j.row])
				lat := time.Since(j.due)
				switch {
				case err != nil:
					o.errored++
					o.lat = append(o.lat, sample{j.i, math.Inf(1)})
					continue
				case lat > spec.limit:
					o.over++
				}
				if spec.expect != nil && label != spec.expect[j.row] {
					o.wrong++
				}
				o.lat = append(o.lat, sample{j.i, float64(lat) / 1e6})
			}
		}(&outs[w])
	}

	var res loadResult
	var refused []sample
	rng := rand.New(rand.NewSource(seed))
	interval := time.Duration(float64(time.Second) / spec.rate)
	start := time.Now()
gen:
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-stop:
				t.Stop()
				break gen
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				break gen
			default:
			}
		}
		res.lagMs = append(res.lagMs, float64(time.Since(due))/1e6)
		res.attempted++
		select {
		case jobs <- job{row: rng.Intn(len(spec.rows)), i: i, due: due}:
		default:
			refused = append(refused, sample{i, math.Inf(1)})
		}
	}
	close(jobs)
	wg.Wait()

	res.refused = int64(len(refused))
	windows := make([][]float64, int(res.attempted)/perWindow) // whole seconds only
	add := func(s sample) {
		res.latMs = append(res.latMs, s.ms)
		if w := s.i / perWindow; w < len(windows) {
			windows[w] = append(windows[w], s.ms)
		}
	}
	for _, s := range refused {
		add(s)
	}
	for _, o := range outs {
		for _, s := range o.lat {
			add(s)
		}
		res.errored += o.errored
		res.overLimit += o.over
		res.wrong += o.wrong
	}
	for _, w := range windows {
		res.windowP99Ms = append(res.windowP99Ms, percentile(w, 99))
	}
	return res
}

// serveFor runs the open loop for d and returns its result.
func serveFor(g *serve.Gateway, spec loadSpec, seed int64, d time.Duration) loadResult {
	stop := make(chan struct{})
	t := time.AfterFunc(d, func() { close(stop) })
	defer t.Stop()
	return runOpenLoop(g, spec, seed, stop)
}
