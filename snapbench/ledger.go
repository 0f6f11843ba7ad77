package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// layer names one module boundary the traced run times. Spans are
// recorded from this benchmark's own files, around calls into the
// program's public functions; the program itself carries no tracing for
// the benchmark.
type layer uint8

const (
	lGrad       layer = iota // core.Engine.ComputeGradient
	lLoss                    // core.Engine.LocalLoss
	lEval                    // model.Accuracy on the test split
	lConsensus               // mean iterate + consensus residual (linalg)
	lBuild                   // core.Engine.BuildUpdate
	lEncode                  // codec.EncodeTo
	lSend                    // transport.Sim.Send fan-out / transport.Peer.Broadcast
	lGatherWait              // Sim.CollectStream / Peer.GatherStream outside its callback
	lDecode                  // codec.DecodeInto
	lIngest                  // core.Engine.IngestFrame
	lStepMix                 // core.Engine.StepMix
	lPublish                 // serve.Feed.Publish
	numLayers
)

// layerInfo gives each layer its metric base name and the unit its
// per-call median is reported in.
var layerInfo = [numLayers]struct {
	name  string
	unit  string
	scale float64 // seconds → unit
}{
	lGrad:       {"model.grad", "ms", 1e3},
	lLoss:       {"model.loss", "ms", 1e3},
	lEval:       {"model.eval", "ms", 1e3},
	lConsensus:  {"linalg.consensus", "us", 1e6},
	lBuild:      {"core.build", "us", 1e6},
	lEncode:     {"codec.encode", "us", 1e6},
	lSend:       {"transport.send", "us", 1e6},
	lGatherWait: {"transport.gather_wait", "ms", 1e3},
	lDecode:     {"codec.decode", "us", 1e6},
	lIngest:     {"core.ingest", "us", 1e6},
	lStepMix:    {"core.stepmix", "us", 1e6},
	lPublish:    {"serve.publish", "us", 1e6},
}

// span is one timed call, in nanoseconds since the ledger's base.
type span struct {
	round      int32
	layer      layer
	start, end int64
}

// track is the span list of one goroutine. A track's spans nest
// properly (a child lies inside its parent), which is what self time
// relies on. Only the owning goroutine appends.
type track struct {
	group int // the round clock this track belongs to (node id, or -1 for a lockstep cluster)
	node  int // the node whose work this is
	led   *ledger
	spans []span
}

// roundRec is one round of one group's clock.
type roundRec struct {
	group, round int
	start, end   int64
}

// ledger collects the traced run's spans and round boundaries in memory;
// they are analysed once the run ends.
type ledger struct {
	base   time.Time
	tracks []*track
}

func newLedger() *ledger { return &ledger{base: time.Now()} }

// newTrack registers a track. Call before the goroutine that owns it
// starts; tracks are read only after every goroutine has finished.
func (l *ledger) newTrack(group, node int) *track {
	t := &track{group: group, node: node, led: l}
	l.tracks = append(l.tracks, t)
	return t
}

func (l *ledger) now() int64 { return int64(time.Since(l.base)) }

// begin returns a timestamp for a span that end will close.
func (t *track) begin() int64 { return t.led.now() }

// end records the span [start, now) for layer in round and returns now,
// so consecutive spans can chain without a second clock read.
func (t *track) end(round int, ly layer, start int64) int64 {
	now := t.led.now()
	t.spans = append(t.spans, span{round: int32(round), layer: ly, start: start, end: now})
	return now
}

// roundClock records round boundaries for one group. Only its owner
// goroutine writes it; analyse reads it after the run.
type roundClock struct {
	group  int
	rounds []roundRec
}

func (c *roundClock) record(round int, start, end int64) {
	c.rounds = append(c.rounds, roundRec{group: c.group, round: round, start: start, end: end})
}

// layerStats is the per-layer result of analysing a ledger.
type layerStats struct {
	calls    [numLayers]int
	self     [numLayers][]float64 // per-call self time, seconds
	busy     [numLayers]float64   // wall-clock attributed to the layer, seconds, summed over rounds
	wall     float64              // summed round wall-clock, seconds
	covered  float64              // wall-clock covered by at least one span
	rounds   int
	roundMs  []float64 // traced round durations, ms
	overlap  float64   // gradient time concurrent with transport, seconds
	transpo  float64   // transport window (send ∪ gather), seconds
	checkErr error     // set when the layers plus the remainder miss the round
}

// selfSegment is a piece of a span during which it is the innermost open
// span on its track.
type selfSegment struct {
	layer      layer
	start, end int64
}

// flatten turns one track's properly nested spans into self segments and
// adds each span's self time to self (indexed like spans).
func flatten(spans []span, self []float64) []selfSegment {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end // parent before child on a shared start
	})
	var out []selfSegment
	emit := func(i int, from, to int64) {
		if to > from {
			out = append(out, selfSegment{layer: spans[i].layer, start: from, end: to})
			self[i] += float64(to-from) / 1e9
		}
	}
	var stack []int
	var cursor int64
	for _, i := range idx {
		s := spans[i]
		for len(stack) > 0 && spans[stack[len(stack)-1]].end <= s.start {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			emit(top, cursor, spans[top].end)
			cursor = spans[top].end
		}
		if len(stack) > 0 {
			emit(stack[len(stack)-1], cursor, s.start)
			// A child that outlives its parent is clipped to it.
			if p := spans[stack[len(stack)-1]]; s.end > p.end {
				spans[i].end = p.end
			}
		}
		cursor = s.start
		stack = append(stack, i)
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		emit(top, cursor, spans[top].end)
		cursor = spans[top].end
	}
	return out
}

// attribute splits the window [a, b) among the self segments of all
// tracks: at each instant the layers active on the k busy tracks each
// get 1/k of it. It returns per-layer seconds and the covered seconds,
// which sum (up to rounding) to the same total.
func attribute(segs []selfSegment, a, b int64) (busy [numLayers]float64, covered float64) {
	type ev struct {
		t     int64
		layer layer
		d     int
	}
	evs := make([]ev, 0, 2*len(segs))
	for _, s := range segs {
		st, en := max(s.start, a), min(s.end, b)
		if en > st {
			evs = append(evs, ev{st, s.layer, +1}, ev{en, s.layer, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	var active [numLayers]int
	total := 0
	for i := 0; i < len(evs); {
		t := evs[i].t
		for i < len(evs) && evs[i].t == t {
			active[evs[i].layer] += evs[i].d
			total += evs[i].d
			i++
		}
		if i == len(evs) || total == 0 {
			continue
		}
		dt := float64(evs[i].t-t) / 1e9
		covered += dt
		for ly, n := range active {
			if n > 0 {
				busy[ly] += dt * float64(n) / float64(total)
			}
		}
	}
	return busy, covered
}

// intervalUnion merges intervals and returns them sorted and disjoint.
func intervalUnion(iv [][2]int64) [][2]int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out [][2]int64
	for _, x := range iv {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], x[1])
			continue
		}
		out = append(out, x)
	}
	return out
}

func intersectLen(a, b [][2]int64) int64 {
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if hi > lo {
			total += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return total
}

// analyse computes per-layer self times, the wall-clock attribution of
// every recorded round, and the gradient/transport overlap.
func (l *ledger) analyse(clocks []*roundClock) layerStats {
	var st layerStats
	type key struct{ group, round int }
	type trackSpans struct {
		node  int
		spans []span
	}
	byRound := map[key][]trackSpans{}
	for _, t := range l.tracks {
		per := map[int][]span{}
		for _, s := range t.spans {
			per[int(s.round)] = append(per[int(s.round)], s)
		}
		for r, ss := range per {
			k := key{t.group, r}
			byRound[k] = append(byRound[k], trackSpans{node: t.node, spans: ss})
		}
	}
	var maxResidual float64
	for _, c := range clocks {
		for _, rr := range c.rounds {
			var segs []selfSegment
			transport := map[int][][2]int64{}
			grads := map[int][][2]int64{}
			for _, ts := range byRound[key{rr.group, rr.round}] {
				self := make([]float64, len(ts.spans))
				segs = append(segs, flatten(ts.spans, self)...)
				for i, s := range ts.spans {
					st.calls[s.layer]++
					st.self[s.layer] = append(st.self[s.layer], self[i])
					switch s.layer {
					case lSend, lGatherWait:
						transport[ts.node] = append(transport[ts.node], [2]int64{s.start, s.end})
					case lGrad:
						grads[ts.node] = append(grads[ts.node], [2]int64{s.start, s.end})
					}
				}
			}
			busy, covered := attribute(segs, rr.start, rr.end)
			wall := float64(rr.end-rr.start) / 1e9
			var sum float64
			for ly := range busy {
				st.busy[ly] += busy[ly]
				sum += busy[ly]
			}
			if wall > 0 {
				maxResidual = math.Max(maxResidual, math.Abs(sum+(wall-covered)-wall)/wall)
			}
			st.wall += wall
			st.covered += covered
			st.rounds++
			st.roundMs = append(st.roundMs, wall*1e3)
			for node, tw := range transport {
				u := intervalUnion(tw)
				for _, x := range u {
					st.transpo += float64(x[1]-x[0]) / 1e9
				}
				st.overlap += float64(intersectLen(u, intervalUnion(grads[node]))) / 1e9
			}
		}
	}
	if maxResidual > 1e-6 {
		st.checkErr = fmt.Errorf("ledger: layers plus remainder miss a round by %.3g of its wall-clock", maxResidual)
	}
	return st
}

// unexplainedFrac is the share of traced round wall-clock no span covers.
func (st *layerStats) unexplainedFrac() float64 {
	if st.wall == 0 {
		return 0
	}
	return (st.wall - st.covered) / st.wall
}
