package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"gpm"
)

type workloadFn func(ctx context.Context, e *env, rep *report) (map[string]any, error)

var workloads = map[string]workloadFn{
	"serve-sim": func(ctx context.Context, e *env, rep *report) (map[string]any, error) {
		return serveWorkload(ctx, e, rep, simShape(e, false))
	},
	"serve-resume": func(ctx context.Context, e *env, rep *report) (map[string]any, error) {
		return serveWorkload(ctx, e, rep, simShape(e, true))
	},
	"bsim-churn": churnWorkload,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// worldSeed fixes the graph and the standing patterns, so every run of a
// workload matches the same problem; -seed draws the update stream. (Drawn
// per seed, pattern selectivity alone moves bsim commit time twofold.)
const worldSeed = 1

// setupReps is how many times an untraced run sets its world up; setup_s
// is the median.
const setupReps = 5

// satWindows is how many consecutive windows the saturation phase's wall
// time is split into (see saturationUps).
const satWindows = 7

// simShape is serve-sim (and, with resume, serve-resume).
func simShape(e *env, resume bool) serveShape {
	sh := serveShape{
		inputs: func() *inputs { return simInputs(worldSeed, 4000, 12000, 20) },
		ins:    4,
		del:    4,
		// Each writer waits for its ack, so the open loop falls behind for
		// good once a round trip exceeds writers/rate. At 300 batches/s
		// (6.7 ms with 2 writers) a 2-CPU shared host crossed that for
		// whole runs when neighbours took CPU; 150 leaves twice the room.
		rate:    150,
		writers: runtime.GOMAXPROCS(0),
		openFor: split(e, 0.8),
		satFor:  split(e, 0.2),
		// Snapshots run under the writer lock every 1024 commits: the
		// open-loop phase crosses several.
		snapEvery: 1024,
	}
	// Resume 250 commits back, or a quarter of a short run's commits,
	// every 200 ms: about 110 resumes in a 30 s run, so resume p90 has
	// ten samples beyond it. (At 300 batches/s, 500 back every 100 ms and
	// 250 back every 100 ms tipped a 2-CPU host into overload whenever
	// the hypervisor stole CPU: ack p50 went from 1.5 to 4-100 ms for
	// seconds at a time.)
	sh.resumeBack = uint64(min(250, max(1, int(sh.rate*sh.openFor.Seconds())/4)))
	if resume {
		sh.resumeEvery = 200 * time.Millisecond
	} else {
		sh.probeN = 10 // serve-sim's traced run measures resumes after its load
	}
	return sh
}

// churnProbeShape serves the bsim-churn world for the traced run only, so
// the layers bsim-churn bypasses (serve, client, journal, follow) report
// what they cost on its batches: one closed-loop writer, a few resumes.
func churnProbeShape(e *env) serveShape {
	return serveShape{
		inputs:     func() *inputs { return bsimInputs(worldSeed, 3400, 21600, 4) },
		ins:        16,
		del:        16,
		writers:    1,
		closedN:    24,
		resumeBack: 12,
		probeN:     3,
		snapEvery:  16,
	}
}

func churnShapeOf(e *env) churnShape {
	return churnShape{
		inputs: func() *inputs { return bsimInputs(worldSeed, 3400, 21600, 4) },
		ins:    16,
		del:    16,
		pool:   4000,
		runFor: split(e, 1),
	}
}

func serveWorkload(ctx context.Context, e *env, rep *report, sh serveShape) (map[string]any, error) {
	reps := setupReps
	if e.traced {
		reps = 1
	}
	base, err := runServe(ctx, e, sh, false, reps)
	if err != nil {
		return nil, err
	}
	ident := map[string]any{
		"gpserve_leader_flags": base.flags, "gpserve_follower_flags": base.fflags,
		"writers": sh.writers, "rate_batches_per_s": sh.rate, "batch_updates": sh.ins + sh.del,
		"open_loop_s": sh.openFor.Seconds(), "saturation_s": sh.satFor.Seconds(),
	}
	if sh.resumeEvery > 0 {
		ident["resume_every_ms"], ident["resume_back"] = sh.resumeEvery.Milliseconds(), sh.resumeBack
	}
	gate(rep, "untraced pass", base.checkErr)
	if !e.traced {
		serveE2E(rep, base, sh)
		rep.res.Attempted, rep.res.Failed = base.attempted, base.failed
		return ident, nil
	}
	tr, err := runServe(ctx, e, sh, true, 1)
	if err != nil {
		return nil, err
	}
	ident["traced_leader_flags"], ident["traced_follower_flags"] = tr.flags, tr.fflags
	gate(rep, "traced pass", tr.checkErr)
	rs, err := replayIncBSim(base.in, base.batches[:min(len(base.batches), 300)], 50)
	gate(rep, "incbsim replay", err)
	contqLayers(rep, tr.leaderStats)
	replayLayers(rep, rs)
	servedLayers(rep, tr)
	overhead(rep, acks(base.open), acks(tr.open))
	setupLayers(rep, base.steps, base.steps["follower_ready"])
	rep.set("bench.gen_late_p99_ms", "ms", quantile(lateness(base.open), 0.99), fmt.Sprintf("open-loop send − due, n=%d", len(base.open)))
	rep.res.Attempted = base.attempted + tr.attempted
	rep.res.Failed = base.failed + tr.failed
	return ident, nil
}

func churnWorkload(ctx context.Context, e *env, rep *report) (map[string]any, error) {
	sh := churnShapeOf(e)
	reps := setupReps
	if e.traced {
		reps = 1
	}
	base, err := runChurn(sh, e.seed, false, reps)
	if err != nil {
		return nil, err
	}
	ident := map[string]any{"batch_updates": sh.ins + sh.del, "callers": 1, "patterns": "4 bsim, k=3"}
	gate(rep, "untraced pass", base.checkErr)
	if !e.traced {
		churnE2E(rep, base)
		rep.res.Attempted, rep.res.Failed = base.attempted, base.failed
		return ident, nil
	}
	tr, err := runChurn(sh, e.seed, true, 1)
	if err != nil {
		return nil, err
	}
	gate(rep, "traced pass", tr.checkErr)
	nRe := min(16, len(base.recs))
	rs, err := replayIncBSim(base.sess.in, base.sess.batches[:nRe], 4)
	gate(rep, "incbsim replay", err)
	probe, err := runServe(ctx, e, churnProbeShape(e), true, 1)
	if err != nil {
		return nil, err
	}
	gate(rep, "served probe", probe.checkErr)
	ident["probe_leader_flags"], ident["probe_follower_flags"] = probe.flags, probe.fflags
	contqLayers(rep, tr.stats)
	replayLayers(rep, rs)
	servedLayers(rep, probe)
	overhead(rep, acks(base.recs), acks(tr.recs))
	setupLayers(rep, base.sess.steps, probe.steps["follower_ready"])
	rep.set("bench.gen_late_p99_ms", "ms", quantile(base.gapsMS, 0.99), fmt.Sprintf("closed loop: caller's gap between batches, n=%d", len(base.gapsMS)))
	rep.res.Attempted = base.attempted + tr.attempted + probe.attempted
	rep.res.Failed = base.failed + tr.failed + probe.failed
	return ident, nil
}

// gate records a correctness failure: the run still reports, but is not
// correct.
func gate(rep *report, what string, err error) {
	if err == nil {
		return
	}
	rep.res.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: correctness check failed (%s): %v\n", what, err)
	fmt.Printf("check FAILED (%s): %v\n", what, err)
}

func acks(recs []batchRec) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err == nil {
			out = append(out, ms(r.acked.Sub(r.due)))
		}
	}
	return out
}

func lateness(recs []batchRec) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		out = append(out, ms(r.sent.Sub(r.due)))
	}
	return out
}

func committedUps(recs []batchRec) int {
	n := 0
	for _, r := range recs {
		if r.err == nil {
			n += r.ups
		}
	}
	return n
}

func nNote(q string, n int) string { return fmt.Sprintf("%s, n=%d", q, n) }

// winNote describes a figure made by windowed over k windows.
func winNote(k int, q string, n int) string {
	return fmt.Sprintf("%s per window, lower quartile of %d windows, n=%d", q, k, n)
}

// serveE2E reports a served workload's end-to-end metrics. Latencies run
// from each batch's scheduled send time.
func serveE2E(rep *report, o *serveOutcome, sh serveShape) {
	ack := acks(o.open)
	k := windowsFor(len(ack), sh.openFor)
	rep.set("setup_s", "s", median(o.setups), nNote("median of set-ups", len(o.setups)))
	rep.set("ack_p50_ms", "ms", windowed(ack, k, 0.5), winNote(k, "due → client.Apply returns, p50", len(ack)))
	rep.set("deliver_p50_ms", "ms", windowed(o.deliverMS, k, 0.5), winNote(k, "due → leader SSE event at the SDK, p50", len(o.deliverMS)))
	rep.set("peak_rss_mb", "MB", o.rssMB, "leader VmHWM")
	rep.info("ack_p90_ms", "ms", windowed(ack, k, 0.9), winNote(k, "p90", len(ack)))
	rep.info("ack_p99_ms", "ms", quantile(ack, 0.99), nNote("p99", len(ack)))
	rep.info("deliver_p90_ms", "ms", windowed(o.deliverMS, k, 0.9), winNote(k, "p90", len(o.deliverMS)))
	rep.info("deliver_p99_ms", "ms", quantile(o.deliverMS, 0.99), nNote("p99", len(o.deliverMS)))
	rep.info("follower_deliver_p50_ms", "ms", median(o.fdeliverMS), nNote("due → follower SSE event at the SDK", len(o.fdeliverMS)))
	rep.info("follower_deliver_p99_ms", "ms", quantile(o.fdeliverMS, 0.99), nNote("p99", len(o.fdeliverMS)))
	rep.info("saturation_ups", "updates/s", saturationUps(o), fmt.Sprintf("%d writers back to back, %d batches in %.1fs, median of %d windows", sh.writers, len(o.sat), o.satElapsed.Seconds(), satWindows))
	if o.resumes.tried > 0 {
		rep.info("resume_p50_ms", "ms", median(o.resumes.total), nNote("FromSeq(head−back) call → head event", len(o.resumes.total)))
		rep.info("resume_p90_ms", "ms", quantile(o.resumes.total, 0.9), nNote("p90", len(o.resumes.total)))
	}
	rep.info("error_rate", "fraction", float64(o.failed)/float64(max(1, o.attempted)), fmt.Sprintf("%d of %d applies, stream events and resumes", o.failed, o.attempted))
}

// saturationUps is the committed-update rate of the saturation phase,
// the median over windows of its wall time.
func saturationUps(o *serveOutcome) float64 {
	if len(o.sat) == 0 {
		return 0
	}
	start := o.sat[0].sent
	for _, r := range o.sat {
		if r.sent.Before(start) {
			start = r.sent
		}
	}
	width := o.satElapsed / satWindows
	per := make([]float64, satWindows)
	for _, r := range o.sat {
		if w := int(r.acked.Sub(start) / width); r.err == nil && w < satWindows {
			per[w] += float64(r.ups)
		}
	}
	for w := range per {
		per[w] /= width.Seconds()
	}
	return median(per)
}

// churnE2E reports bsim-churn's end-to-end metrics: the caller's commit
// latency is its ack, and an in-process subscriber's receipt its delivery.
func churnE2E(rep *report, o *churnOutcome) {
	ack := acks(o.recs)
	ups := float64(committedUps(o.recs)) / o.elapsed.Seconds()
	k := windowsFor(len(ack), o.elapsed)
	rep.set("setup_s", "s", median(o.setups), nNote("median of set-ups", len(o.setups)))
	rep.set("ack_p50_ms", "ms", windowed(ack, k, 0.5), winNote(k, "Registry.Apply wall time, p50", len(ack)))
	rep.set("deliver_p50_ms", "ms", windowed(o.deliverMS, k, 0.5), winNote(k, "Apply call → in-process subscriber event, p50", len(o.deliverMS)))
	rep.info("deliver_p90_ms", "ms", quantile(o.deliverMS, 0.9), nNote("p90", len(o.deliverMS)))
	rep.set("peak_rss_mb", "MB", o.rssMB, "benchmark process VmHWM (hosts the registry)")
	rep.info("commit_ups", "updates/s", ups, fmt.Sprintf("one caller, closed loop, %d batches in %.1fs", len(o.recs), o.elapsed.Seconds()))
	rep.info("commit_p50_ms", "ms", median(ack), nNote("whole run", len(ack)))
	rep.info("commit_p90_ms", "ms", quantile(ack, 0.9), nNote("p90", len(ack)))
	rep.info("error_rate", "fraction", float64(o.failed)/float64(max(1, o.attempted)), fmt.Sprintf("%d of %d applies", o.failed, o.attempted))
}

// contqLayers reads the commit pipeline's and the shared network's
// telemetry out of a registry's stats.
func contqLayers(rep *report, st gpm.RegistryStats) {
	t := st.Timings
	if t == nil {
		t = &gpm.TimingStats{}
	}
	n := func(h gpm.HistSnapshot) string { return fmt.Sprintf("histogram estimate, n=%d", h.Count) }
	commits := float64(max(1, st.Commits))
	rep.set("contq.queue_wait_p50_ms", "ms", t.QueueWaitMS.P50, n(t.QueueWaitMS))
	rep.set("contq.queue_wait_p99_ms", "ms", t.QueueWaitMS.P99, n(t.QueueWaitMS))
	rep.set("contq.commit_p50_ms", "ms", t.TotalMS.P50, n(t.TotalMS))
	rep.set("contq.commit_p99_ms", "ms", t.TotalMS.P99, n(t.TotalMS))
	rep.set("contq.validate_p50_ms", "ms", t.ValidateMS.P50, n(t.ValidateMS))
	rep.set("contq.repair_p50_ms", "ms", t.RepairMS.P50, n(t.RepairMS))
	rep.set("contq.publish_p50_ms", "ms", t.PublishMS.P50, n(t.PublishMS))
	rep.set("contq.publish_p99_ms", "ms", t.PublishMS.P99, n(t.PublishMS))
	rep.set("contq.mailbox_high_water", "count", float64(t.MailboxHighWater), "deepest subscriber mailbox")
	rep.set("contq.applies_per_commit", "ratio", float64(st.Applies)/commits, fmt.Sprintf("%d applies / %d commits", st.Applies, st.Commits))
	rep.set("gdn.network_p50_ms", "ms", t.NetworkMS.P50, n(t.NetworkMS))
	rep.set("gdn.network_p99_ms", "ms", t.NetworkMS.P99, n(t.NetworkMS))
	var joins, saved int64
	if st.Network != nil {
		joins, saved = st.Network.JoinRepairs, st.Network.RepairsSaved
	}
	rep.set("gdn.join_repairs_per_commit", "ratio", float64(joins)/commits, fmt.Sprintf("%d join repairs / %d commits", joins, st.Commits))
	rep.set("gdn.repairs_saved_per_commit", "ratio", float64(saved)/commits, fmt.Sprintf("%d saved / %d commits", saved, st.Commits))
}

func replayLayers(rep *report, rs *replayStats) {
	if rs == nil {
		rs = &replayStats{}
	}
	ups := float64(max(1, rs.updates))
	rep.set("incbsim.batch_p50_ms", "ms", median(rs.batchMS), nNote("incbsim Batch on the workload's batches", len(rs.batchMS)))
	rep.set("incbsim.aff_per_update", "ratio", float64(rs.aff)/ups, fmt.Sprintf("|AFF| %d / %d updates", rs.aff, rs.updates))
	rep.set("incbsim.pairs_examined_per_update", "ratio", float64(rs.examined)/ups, fmt.Sprintf("%d / %d updates", rs.examined, rs.updates))
	rep.set("core.recompute_p50_ms", "ms", median(rs.recomputeMS), nNote("core.MatchBFS on sampled post-batch graphs", len(rs.recomputeMS)))
}

// servedLayers reports the journal, serve, client and follow layers and
// the trace attribution of a traced served pass.
func servedLayers(rep *report, o *serveOutcome) {
	st := o.leaderStats
	t := st.Timings
	if t == nil {
		t = &gpm.TimingStats{}
	}
	rep.set("journal.stage_p50_ms", "ms", t.JournalMS.P50, fmt.Sprintf("histogram estimate, n=%d", t.JournalMS.Count))
	rep.set("journal.stage_p99_ms", "ms", t.JournalMS.P99, fmt.Sprintf("histogram estimate, n=%d", t.JournalMS.Count))
	var app, fsync, snap gpm.HistSnapshot
	if j := st.Journal; j != nil {
		for _, p := range []struct {
			src *gpm.HistSnapshot
			dst *gpm.HistSnapshot
		}{{j.AppendMS, &app}, {j.FsyncMS, &fsync}, {j.SnapshotMS, &snap}} {
			if p.src != nil {
				*p.dst = *p.src
			}
		}
	}
	rep.set("journal.append_p99_ms", "ms", app.P99, fmt.Sprintf("histogram estimate, n=%d", app.Count))
	rep.set("journal.fsync_count", "count", float64(fsync.Count), "")
	rep.set("journal.snapshot_count", "count", float64(snap.Count), "")
	rep.set("journal.snapshot_p50_ms", "ms", snap.P50, fmt.Sprintf("histogram estimate, n=%d", snap.Count))

	sp := analyzeSpans(o.harvest.traces)
	rep.set("serve.ingest_self_p50_ms", "ms", median(sp.ingestSelfMS), nNote("http.ingest span minus its children", len(sp.ingestSelfMS)))
	rep.set("serve.ingest_samples", "count", float64(len(sp.ingestSelfMS)), "http.ingest spans harvested")
	rep.set("serve.sse_deliver_p50_ms", "ms", median(sp.sseMS), nNote("sse.deliver spans", len(sp.sseMS)))
	rep.set("serve.sse_deliver_p99_ms", "ms", quantile(sp.sseMS, 0.99), nNote("sse.deliver spans", len(sp.sseMS)))
	rep.set("serve.sse_deliver_samples", "count", float64(len(sp.sseMS)), "sse.deliver spans harvested")

	rep.set("client.deliver_lag_p50_ms", "ms", median(o.lagMS), nNote("SDK receipt − MatchEvent.At", len(o.lagMS)))
	rep.set("client.deliver_lag_p99_ms", "ms", quantile(o.lagMS, 0.99), nNote("SDK receipt − MatchEvent.At", len(o.lagMS)))
	rep.set("client.stream_disconnects", "count", float64(o.disconnects), "StreamStats, leader + follower")
	res := o.resumes
	if res.tried == 0 {
		res = o.probes
	}
	rep.set("client.resume_first_event_p50_ms", "ms", median(res.first), nNote("Stream(FromSeq) call → first event", len(res.first)))
	rep.set("client.resume_p50_ms", "ms", median(res.total), nNote("Stream(FromSeq) call → head event", len(res.total)))
	rep.set("client.resume_samples", "count", float64(len(res.total)), "")

	ft := o.followStats.Timings
	if ft == nil {
		ft = &gpm.TimingStats{}
	}
	rep.set("follow.deliver_p50_ms", "ms", median(o.fdeliverMS), nNote("due → follower SSE event at the SDK", len(o.fdeliverMS)))
	rep.set("follow.deliver_p99_ms", "ms", quantile(o.fdeliverMS, 0.99), nNote("due → follower SSE event at the SDK", len(o.fdeliverMS)))
	rep.set("follow.replica_commit_p50_ms", "ms", ft.TotalMS.P50, fmt.Sprintf("follower commit histogram, n=%d", ft.TotalMS.Count))
	rep.set("follow.replica_commit_p99_ms", "ms", ft.TotalMS.P99, fmt.Sprintf("follower commit histogram, n=%d", ft.TotalMS.Count))
	rep.set("follow.lag_max_commits", "count", float64(o.maxLag), "replication lag sampled at 1 Hz")
	rep.set("follow.bootstraps", "count", float64(o.follower.Follower.Bootstraps), "")

	var un []float64
	for _, r := range o.open {
		in, ok := sp.ingestByID[r.traceID]
		if r.err != nil || !ok {
			continue
		}
		rt := ms(r.acked.Sub(r.sent))
		un = append(un, 100*(rt-in)/rt)
	}
	rep.set("trace.unattributed_ack_p50_pct", "%", median(un), nNote("(client round trip − http.ingest) / round trip", len(un)))
	rep.set("trace.traces_harvested", "count", float64(sp.traces), fmt.Sprintf("%d /v1/tracez pulls", o.harvest.pulls))
}

func overhead(rep *report, off, on []float64) {
	a, b := median(off), median(on)
	rep.set("trace.overhead_ack_p50_pct", "%", 100*(b-a)/a, fmt.Sprintf("traced ack p50 %.3f ms vs untraced %.3f ms", b, a))
}

func setupLayers(rep *report, steps map[string]float64, followerReady float64) {
	rep.set("setup.generate_s", "s", steps["generate"], "inputs and batches")
	rep.set("setup.load_graph_s", "s", steps["load_graph"], "")
	rep.set("setup.register_s", "s", steps["register"], "")
	rep.set("setup.follower_ready_s", "s", followerReady, "")
}
