package main

import (
	"fmt"
	"time"

	"gpm/internal/core"
	"gpm/internal/graph"
	"gpm/internal/incbsim"
	"gpm/internal/obs/trace"
)

// replayStats is the incbsim and core layers measured from outside: the
// workload's own batches replayed through one incbsim engine per pattern
// family, with core.MatchBFS recomputation timed on sampled post-batch
// graphs (and checked against the engine, as a further correctness gate).
type replayStats struct {
	batchMS     []float64
	recomputeMS []float64
	updates     int64
	aff         int64
	examined    int64
}

func replayIncBSim(in *inputs, batches [][]graph.Update, every int) (*replayStats, error) {
	rs := &replayStats{}
	for fi, p := range in.families {
		eng, err := incbsim.New(p, in.base.Clone())
		if err != nil {
			return nil, err
		}
		for i, b := range batches {
			eng.ResetStats()
			t := time.Now()
			eng.Batch(b)
			rs.batchMS = append(rs.batchMS, ms(time.Since(t)))
			st := eng.Stats()
			rs.updates += int64(len(b))
			rs.aff += st.Total()
			rs.examined += st.PairsExamined
			if (i+1)%every != 0 {
				continue
			}
			t = time.Now()
			want := core.MatchBFS(p, eng.Graph())
			rs.recomputeMS = append(rs.recomputeMS, ms(time.Since(t)))
			if err := samePairs(fmt.Sprintf("incbsim vs recomputation, family %d after batch %d", fi, i), eng.Result().Pairs(), want.Pairs()); err != nil {
				return nil, err
			}
		}
	}
	return rs, nil
}

// spanStats reads the harvested leader traces: http.ingest self time (its
// duration minus the part its children cover), sse.deliver durations, and
// each traced batch's ingest duration by trace ID.
type spanStats struct {
	ingestSelfMS []float64
	sseMS        []float64
	ingestByID   map[string]float64
	traces       int
}

func analyzeSpans(traces map[string]traceSnapshot) spanStats {
	st := spanStats{ingestByID: map[string]float64{}, traces: len(traces)}
	for id, t := range traces {
		for _, sp := range t.Spans {
			if sp.InFlight {
				continue
			}
			switch sp.Name {
			case "sse.deliver":
				st.sseMS = append(st.sseMS, sp.DurationMS)
			case "http.ingest":
				st.ingestByID[id] = sp.DurationMS
				st.ingestSelfMS = append(st.ingestSelfMS, sp.DurationMS-childCover(t.Spans, sp))
			}
		}
	}
	return st
}

// childCover is how much of parent's interval its direct children cover
// (overlaps counted once).
func childCover(spans []trace.SpanSnapshot, parent trace.SpanSnapshot) float64 {
	pEnd := parent.Start.Add(time.Duration(parent.DurationMS * float64(time.Millisecond)))
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range spans {
		if c.ParentID != parent.SpanID {
			continue
		}
		a := c.Start
		b := c.Start.Add(time.Duration(c.DurationMS * float64(time.Millisecond)))
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(pEnd) {
			b = pEnd
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Few children per span: a quadratic merge is fine.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a.Before(ivs[j-1].a); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			if v.b.After(end) {
				covered += v.b.Sub(end)
				end = v.b
			}
			continue
		}
		covered += v.b.Sub(v.a)
		end = v.b
	}
	return ms(covered)
}
