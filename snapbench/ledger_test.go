package main

import (
	"math"
	"testing"
)

func TestFlattenSelfTime(t *testing.T) {
	// gather [0,100) holds decode [10,30) and ingest [30,40); build
	// [100,120) follows on the same track.
	spans := []span{
		{layer: lDecode, start: 10, end: 30},
		{layer: lIngest, start: 30, end: 40},
		{layer: lGatherWait, start: 0, end: 100},
		{layer: lBuild, start: 100, end: 120},
	}
	self := make([]float64, len(spans))
	segs := flatten(spans, self)
	want := []float64{20e-9, 10e-9, 70e-9, 20e-9}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-18 {
			t.Errorf("span %d self = %g, want %g", i, self[i], want[i])
		}
	}
	var covered int64
	for _, s := range segs {
		covered += s.end - s.start
	}
	if covered != 120 {
		t.Errorf("self segments cover %d ns, want 120", covered)
	}
}

func TestFlattenClipsChildToParent(t *testing.T) {
	spans := []span{{layer: lGatherWait, start: 0, end: 50}, {layer: lDecode, start: 40, end: 70}}
	self := make([]float64, 2)
	flatten(spans, self)
	if math.Abs(self[0]-40e-9) > 1e-18 || math.Abs(self[1]-10e-9) > 1e-18 {
		t.Errorf("self = %v, want [40ns 10ns]", self)
	}
}

func TestAttributeSplitsConcurrentTracks(t *testing.T) {
	// Track A: grad [0,100). Track B: send [50,150). Window [0,200).
	segs := []selfSegment{{lGrad, 0, 100}, {lSend, 50, 150}}
	busy, covered := attribute(segs, 0, 200)
	if math.Abs(covered-150e-9) > 1e-18 {
		t.Errorf("covered %g, want 150ns", covered)
	}
	if math.Abs(busy[lGrad]-75e-9) > 1e-18 || math.Abs(busy[lSend]-75e-9) > 1e-18 {
		t.Errorf("busy grad %g send %g, want 75ns each", busy[lGrad], busy[lSend])
	}
}

func TestAnalyseAddsUpToTheRound(t *testing.T) {
	led := &ledger{}
	main := led.newTrack(0, 0)
	grad := led.newTrack(0, 0)
	main.spans = append(main.spans, span{layer: lBuild, start: 10, end: 20})
	main.spans = append(main.spans, span{layer: lSend, start: 20, end: 30})
	main.spans = append(main.spans, span{layer: lGatherWait, start: 30, end: 90})
	main.spans = append(main.spans, span{layer: lDecode, start: 40, end: 45})
	main.spans = append(main.spans, span{layer: lStepMix, start: 90, end: 95})
	grad.spans = append(grad.spans, span{layer: lGrad, start: 5, end: 80})
	clock := &roundClock{group: 0}
	clock.record(0, 0, 100)
	st := led.analyse([]*roundClock{clock})
	if st.checkErr != nil {
		t.Fatal(st.checkErr)
	}
	var sum float64
	for _, b := range st.busy {
		sum += b
	}
	if got := sum/st.wall + st.unexplainedFrac(); math.Abs(got-1) > 1e-9 {
		t.Errorf("busy shares + unexplained = %g, want 1", got)
	}
	// Uncovered: [0,5) and [95,100).
	if math.Abs(st.unexplainedFrac()-0.10) > 1e-9 {
		t.Errorf("unexplained %g, want 0.10", st.unexplainedFrac())
	}
	// Gradient [5,80) against transport [20,90): 60 of 70 ns.
	if math.Abs(st.overlap/st.transpo-60.0/70) > 1e-9 {
		t.Errorf("overlap %g, want %g", st.overlap/st.transpo, 60.0/70)
	}
	if st.calls[lDecode] != 1 || math.Abs(st.self[lGatherWait][0]-55e-9) > 1e-18 {
		t.Errorf("gather self %v calls %v", st.self[lGatherWait], st.calls)
	}
}
