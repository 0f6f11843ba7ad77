package core

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapml/snap/internal/codec"
	"github.com/snapml/snap/internal/linalg"
	"github.com/snapml/snap/internal/obs"
	"github.com/snapml/snap/internal/trace"
	"github.com/snapml/snap/internal/transport"
)

// link is one node's network endpoint as the round body sees it.
// *transport.Peer has the first two methods; release hands a received
// frame back to whoever owns its buffer once it is decoded.
type link interface {
	Broadcast(round int, frame []byte) error
	GatherStream(round int, timeout time.Duration, deliver func(from int, frame []byte) bool) (got, want int)
	release(frame []byte)
}

// peerLink is the TCP link: received frames come from the transport's
// receive pool and go back to it.
type peerLink struct{ *transport.Peer }

func (peerLink) release(frame []byte) { transport.RecycleFrame(frame) }

// simLink is one node's link on the lockstep simulator. Received frames
// alias the sender's encode buffer (DESIGN.md §10), so release keeps
// them out of the TCP receive pool; the lockstep barrier makes the
// timeout moot.
type simLink struct {
	net  *transport.Sim
	id   int
	nbrs []int // ascending; Sim.Neighbors copies on every call
}

func (l *simLink) Broadcast(_ int, frame []byte) error {
	var first error
	for _, j := range l.nbrs {
		if err := l.net.Send(l.id, j, frame); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (l *simLink) GatherStream(_ int, _ time.Duration, deliver func(from int, frame []byte) bool) (int, int) {
	return l.net.CollectStream(l.id, deliver), len(l.nbrs)
}

func (*simLink) release([]byte) {}

// roundMetrics caches the round-driver metric handles: one histogram per
// pipeline phase (the round latency breakdown), whole-round latency, and
// the fault/refresh counters mirrored into the registry.
type roundMetrics struct {
	phases                           [trace.NumPhases]*obs.Histogram
	roundSeconds, overlapSeconds     *obs.Histogram
	round, roundBytes, localLoss     *obs.Gauge
	streamDepth                      *obs.Gauge
	streamFrames                     *obs.Counter
	sendFailures, corrupt, refreshes *obs.Counter
	epoch                            *obs.Gauge
	epochsApplied                    *obs.Counter
	reconfigSeconds                  *obs.Histogram
}

func newRoundMetrics(o *obs.Observer) roundMetrics {
	m := roundMetrics{
		roundSeconds:   o.Histogram(obs.MRoundSeconds, obs.TimeBuckets),
		overlapSeconds: o.Histogram(obs.MOverlapSeconds, obs.TimeBuckets),
		streamDepth:    o.Gauge(obs.MStreamDepth),
		streamFrames:   o.Counter(obs.MStreamFrames),
		round:          o.Gauge(obs.MRound),
		roundBytes:     o.Gauge(obs.MRoundBytes),
		localLoss:      o.Gauge(obs.MLocalLoss),
		sendFailures:   o.Counter(obs.MSendFailures),
		corrupt:        o.Counter(obs.MCorruptFrames),
		refreshes:      o.Counter(obs.MRefreshes),

		epoch:           o.Gauge(obs.MEpoch),
		epochsApplied:   o.Counter(obs.MEpochsApplied),
		reconfigSeconds: o.Histogram(obs.MReconfigSeconds, obs.TimeBuckets),
	}
	for p := range m.phases {
		m.phases[p] = o.Histogram(obs.Label(obs.MPhaseSeconds, obs.LPhase, trace.PhaseID(p).Name()), obs.TimeBuckets)
	}
	return m
}

// record observes phase p's histogram and records its trace span from
// one start/end pair (the span is a no-op on a nil tracer).
func (m *roundMetrics) record(tr *trace.Tracer, round int, p trace.PhaseID, start, end time.Time) {
	m.phases[p].Observe(end.Sub(start).Seconds())
	tr.Phase(round, p, start, end)
}

// nodeRound is one node's round body, shared by the simulator and TCP
// drivers (DESIGN.md §14): send opens the ingest window, starts the
// gradient, then builds, encodes and broadcasts the update; finish
// streams in the neighbors' frames, joins the gradient and steps. A
// driver runs send then finish; Cluster puts its lockstep barrier
// between the two. Round-level work (loss, events, publication) stays
// with the drivers.
type nodeRound struct {
	eng     *Engine
	link    link
	met     *roundMetrics
	tr      *trace.Tracer
	o       *obs.Observer
	log     func(format string, args ...any)
	timeout time.Duration
	lossy   bool // Float32Wire

	enc []byte       // the round's wire frame; valid until the next send
	dec codec.Update // decode target: IngestFrame borrows it only for the call

	// The gradient worker, when started: a persistent goroutine (a `go
	// func` per round would allocate on the hot path) fed the round
	// number on gradCmd and answering on the buffered gradDone. Every
	// kick in send is paired with one joinGrad, error paths included —
	// the receive is the happens-before edge that makes the engine's
	// gradient scratch safe. gradFinished is written before the done
	// signal, so reading it after joinGrad is ordered. Without a worker
	// the gradient runs inline before build: the simulator's mode and
	// PeerNodeConfig.Sequential.
	gradCmd      chan int
	gradDone     chan struct{}
	gradStop     sync.Once
	gradRunning  atomic.Bool
	gradFinished time.Time

	sendFailures atomic.Int64

	// Per-round stream state, written by deliver. deliverFn is deliver
	// bound once, so a gather allocates no closure.
	round                               int
	bcastStart                          time.Time
	ingestErr                           error
	got, overlapped                     int
	decSecs, intSecs                    float64
	firstDecode, lastDecode, lastIngest time.Time
	deliverFn                           func(from int, frame []byte) bool
}

// init binds the gather callback and, for a pipelined node, starts the
// gradient worker; stop ends it.
func (nr *nodeRound) init(pipelined bool) *nodeRound {
	nr.deliverFn = nr.deliver
	if pipelined {
		nr.gradCmd = make(chan int)
		nr.gradDone = make(chan struct{}, 1)
		go nr.gradWorker()
	}
	return nr
}

func (nr *nodeRound) stop() {
	if nr.gradCmd != nil {
		nr.gradStop.Do(func() { close(nr.gradCmd) })
	}
}

// gradWorker runs Engine.ComputeGradient for each round send hands it,
// concurrently with that round's broadcast and gather. Closing gradCmd
// ends it.
func (nr *nodeRound) gradWorker() {
	for round := range nr.gradCmd {
		nr.eng.ComputeGradient(round)
		nr.gradFinished = time.Now()
		nr.gradRunning.Store(false)
		nr.gradDone <- struct{}{}
	}
}

// joinGrad waits for the round's gradient (a no-op when it ran inline).
func (nr *nodeRound) joinGrad() {
	if nr.gradCmd != nil {
		<-nr.gradDone
	}
}

func (nr *nodeRound) logf(format string, args ...any) {
	if nr.log != nil {
		nr.log(format, args...)
	}
}

// send is the first half of the round. The gradient starts before the
// build: ComputeGradient reads only the iterate and local data, state
// disjoint from everything build/encode/broadcast/ingest touch
// (DESIGN.md §14), so the whole comms window can hide behind it. A
// failed broadcast is a straggler, not a node failure: the receiver
// reuses our last parameters, so it is counted and the round goes on.
// The returned update is the engine's BuildUpdate scratch.
//
//snap:returns-borrowed
func (nr *nodeRound) send(round int) (*codec.Update, error) {
	e := nr.eng
	e.BeginIntegrate()
	if nr.gradCmd == nil {
		e.ComputeGradient(round)
	} else {
		nr.gradRunning.Store(true)
		nr.gradCmd <- round
	}
	t := time.Now()
	u, err := e.BuildUpdate(round)
	if err != nil {
		nr.joinGrad()
		return nil, err
	}
	end := time.Now()
	nr.met.record(nr.tr, round, trace.PhaseBuild, t, end)
	if nr.lossy {
		nr.enc, _, err = codec.EncodeLossyTo(nr.enc, u)
	} else {
		nr.enc, _, err = codec.EncodeTo(nr.enc, u)
	}
	if err != nil {
		nr.joinGrad()
		return nil, err
	}
	t, end = end, time.Now()
	nr.met.record(nr.tr, round, trace.PhaseEncode, t, end)
	nr.bcastStart = end
	if err := nr.link.Broadcast(round, nr.enc); err != nil {
		nr.sendFailures.Add(1)
		nr.met.sendFailures.Inc()
		if nr.o.LogEnabled() {
			f := obs.GetFields()
			f["kind"] = "send_failure"
			f["error"] = err.Error()
			nr.o.Emit(e.ID(), obs.EvFault, round, -1, f)
			obs.PutFields(f)
		}
		nr.logf("node %d: broadcast round %d: %v (continuing; link treated as straggler)", e.ID(), round, err)
	}
	nr.met.record(nr.tr, round, trace.PhaseBroadcast, nr.bcastStart, time.Now())
	return u, nil
}

// finish is the second half of the round: frames are decoded and
// ingested one by one as the link delivers them, while a worker
// gradient may still be running; StepMix joins the two. It returns the
// new iterate, the engine's live vector.
//
//snap:returns-borrowed
func (nr *nodeRound) finish(round int) (linalg.Vector, error) {
	nr.round, nr.ingestErr = round, nil
	nr.got, nr.overlapped, nr.decSecs, nr.intSecs = 0, 0, 0, 0
	nr.firstDecode = time.Time{}
	gatherStart := time.Now()
	nr.link.GatherStream(round, nr.timeout, nr.deliverFn)
	gatherEnd := time.Now()
	// The gather phase is the whole stream window; the decode and
	// integrate phases are the slices of it spent off the wire. Their
	// windows overlap the gather window — that is the pipeline, not a
	// bookkeeping bug — and their histograms observe the summed slices.
	nr.met.record(nr.tr, round, trace.PhaseGather, gatherStart, gatherEnd)
	if nr.firstDecode.IsZero() {
		nr.firstDecode, nr.lastDecode, nr.lastIngest = gatherEnd, gatherEnd, gatherEnd
	}
	nr.met.phases[trace.PhaseDecode].Observe(nr.decSecs)
	nr.tr.Phase(round, trace.PhaseDecode, nr.firstDecode, nr.lastDecode)
	nr.met.phases[trace.PhaseIntegrate].Observe(nr.intSecs)
	nr.tr.Phase(round, trace.PhaseIntegrate, nr.firstDecode, nr.lastIngest)

	// Barrier: the round's gradient must be in scratch before StepMix
	// reads it (and before a fatal return hands the loop back).
	nr.joinGrad()
	if nr.ingestErr != nil {
		return nil, nr.ingestErr
	}
	// The overlap window is [broadcast start, min(gradient end, gather
	// end)]: the comms time the gradient hid. Inline, gradFinished stays
	// zero and the window is empty.
	overlapEnd := nr.gradFinished
	if gatherEnd.Before(overlapEnd) {
		overlapEnd = gatherEnd
	}
	if overlapEnd.After(nr.bcastStart) {
		nr.met.overlapSeconds.Observe(overlapEnd.Sub(nr.bcastStart).Seconds())
		nr.tr.Span(round, trace.SpanOverlap, nr.bcastStart, overlapEnd)
	} else {
		nr.met.overlapSeconds.Observe(0)
	}
	nr.met.streamDepth.Set(float64(nr.overlapped))
	nr.met.streamFrames.Add(int64(nr.got))
	return nr.eng.StepMix(round), nil
}

// deliver is the gather callback: decode the frame, release it, ingest.
func (nr *nodeRound) deliver(from int, frame []byte) bool {
	d0 := time.Now()
	err := codec.DecodeInto(&nr.dec, frame)
	// DecodeInto never aliases the wire bytes, so the frame can go back
	// to its owner immediately.
	nr.link.release(frame)
	if err != nil {
		// A corrupt frame from one neighbor is that neighbor's problem,
		// not ours: drop it and reuse their last view.
		nr.met.corrupt.Inc()
		if nr.o.LogEnabled() {
			f := obs.GetFields()
			f["kind"] = "corrupt_frame"
			f["error"] = err.Error()
			nr.o.Emit(nr.eng.ID(), obs.EvFault, nr.round, from, f)
			obs.PutFields(f)
		}
		nr.logf("node %d: dropping corrupt round-%d frame from %d: %v", nr.eng.ID(), nr.round, from, err)
		return true
	}
	d1 := time.Now()
	nr.tr.Span(nr.round, trace.SpanFrameDecode, d0, d1)
	if err := nr.eng.IngestFrame(&nr.dec); err != nil {
		nr.ingestErr = err
		return false // abort the stream; the error is fatal
	}
	i1 := time.Now()
	nr.decSecs += d1.Sub(d0).Seconds()
	nr.intSecs += i1.Sub(d1).Seconds()
	if nr.firstDecode.IsZero() {
		nr.firstDecode = d0
	}
	nr.lastDecode, nr.lastIngest = d1, i1
	nr.got++
	if nr.gradRunning.Load() {
		nr.overlapped++
	}
	return true
}
