package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"gpm/internal/graph"
	"gpm/internal/pattern"
	"gpm/internal/rel"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks each emits exactly the declared metrics with their units and
// passes its correctness gate.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gpserve and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gpserve")
	if out, err := exec.Command("go", "build", "-o", bin, "gpm/cmd/gpserve").CombinedOutput(); err != nil {
		t.Fatalf("building gpserve: %v\n%s", err, out)
	}
	e2e, layers := declared(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			e := &env{workload: name, seed: 3, seconds: 2, traced: traced, gpserve: bin, workdir: dir}
			rep := newReport()
			if _, err := workloads[name](context.Background(), e, rep); err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.res.Correct || rep.res.Attempted < 1 || rep.res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.res.Correct, rep.res.Attempted, rep.res.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			for m, unit := range want {
				got, ok := rep.res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", name, traced, m, got, ok, unit)
				}
			}
			if len(rep.res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want exactly the %d declared", name, traced, len(rep.res.Metrics), len(want))
			}
		}
	}
}

// TestGateRejectsWrongReference commits a few batches to a small registry
// and checks the gate passes against true recomputation and fails as
// soon as the reference it is fed is wrong.
func TestGateRejectsWrongReference(t *testing.T) {
	sh := churnShape{
		inputs: func() *inputs { return bsimInputs(5, 300, 1500, 2) },
		ins:    4, del: 4, pool: 12,
	}
	s, err := setupChurn(sh, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	var seq uint64
	for _, b := range s.batches {
		if seq, err = s.reg.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if !s.subRec.waitSeq(seq, 10*time.Second) {
		t.Fatal("subscriber did not catch up")
	}
	if err := checkChurn(s, s.batches, reference); err != nil {
		t.Fatalf("gate rejects the true reference: %v", err)
	}
	wrong := func(kind string, p *pattern.Pattern, g *graph.Graph) []rel.Pair {
		ps := reference(kind, p, g)
		if len(ps) > 0 {
			return ps[1:] // one pair short
		}
		return []rel.Pair{{U: 0, V: 0}} // one pair too many
	}
	if err := checkChurn(s, s.batches, wrong); err == nil {
		t.Fatal("gate accepted a wrong reference")
	}
}
