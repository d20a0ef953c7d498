package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thalia/internal/benchmark"
	"thalia/internal/website"
)

// writeEngineReport produces a small real engine artifact at path and
// returns it, so a test can write a modified copy beside it.
func writeEngineReport(t *testing.T, path string) *benchmark.Report {
	t.Helper()
	rep, err := benchmark.MeasureEngine(1, []int{2}, systems()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCompareEnginePassAndInjectedSlowdownFails(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeEngineReport(t, base)

	// Same artifact on both sides: zero delta, must pass.
	var out strings.Builder
	if err := run([]string{"compare", "-baseline", base, "-fresh", base}, &out); err != nil {
		t.Fatalf("identical compare failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "within +30%") {
		t.Errorf("missing pass notice:\n%s", out.String())
	}

	// The CI gate's reason to exist: a 2× slowdown must fail.
	out.Reset()
	err := run([]string{"compare", "-baseline", base, "-fresh", base, "-slowdown", "2.0"}, &out)
	if err == nil {
		t.Fatalf("2x slowdown passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("missing regression lines:\n%s", out.String())
	}
}

// chaos writes a benchmark_chaos artifact that the engine comparer can
// gate, and trips on an injected slowdown like the engine suite.
func TestChaosCmdAndCompare(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "chaos.json")
	var out strings.Builder
	if err := run([]string{"chaos", "-out", base, "-runs", "1", "-pool", "2", "-seed", "1"}, &out); err != nil {
		t.Fatalf("chaos: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "wrote "+base) {
		t.Errorf("missing artifact notice:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"compare", "-baseline", base, "-fresh", base}, &out); err != nil {
		t.Fatalf("identical chaos compare failed: %v\n%s", err, out.String())
	}
	if err := run([]string{"compare", "-baseline", base, "-fresh", base, "-slowdown", "2.0"}, &out); err == nil {
		t.Fatal("2x chaos slowdown passed the gate")
	}
}

// plan prints one interpreter-vs-plan row per benchmark query plus a total,
// and errors out (rather than reporting) if the engines ever disagree.
func TestPlanCmdReportsAllQueries(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"plan", "-runs", "2"}, &out); err != nil {
		t.Fatalf("plan: %v\n%s", err, out.String())
	}
	for _, want := range []string{"q01", "q12", "total", "plan ns/op"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("plan report missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareServerSuite(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	rep, err := website.MeasureServer(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(base); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"compare", "-baseline", base, "-fresh", base}, &out); err != nil {
		t.Fatalf("identical server compare failed: %v\n%s", err, out.String())
	}
	if err := run([]string{"compare", "-baseline", base, "-fresh", base, "-slowdown", "3"}, &out); err == nil {
		t.Fatal("3x server slowdown passed the gate")
	}
}

func TestCompareSuiteMismatch(t *testing.T) {
	dir := t.TempDir()
	engine := filepath.Join(dir, "engine.json")
	server := filepath.Join(dir, "server.json")
	writeEngineReport(t, engine)
	rep, err := website.MeasureServer(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(server); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"compare", "-baseline", engine, "-fresh", server}, &out); err == nil ||
		!strings.Contains(err.Error(), "suite mismatch") {
		t.Fatalf("err = %v, want suite mismatch", err)
	}
}

// A fresh run measured at another GOMAXPROCS than the baseline names its
// pool row differently and times it on a different CPU budget: compare
// must refuse it outright rather than report false regressions.
func TestCompareGomaxprocsMismatch(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	fresh := filepath.Join(dir, "fresh.json")
	rep := writeEngineReport(t, base)
	rep.GoMaxProcs++
	if err := rep.WriteJSON(fresh); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"compare", "-baseline", base, "-fresh", fresh}, &out)
	want := fmt.Sprintf("gomaxprocs mismatch: baseline %d vs fresh %d", rep.GoMaxProcs-1, rep.GoMaxProcs)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

// scale -profile writes the same CPU and heap profiles engine does.
func TestScaleProfileFlag(t *testing.T) {
	dir := t.TempDir()
	profDir := filepath.Join(dir, "prof")
	var out strings.Builder
	args := []string{"scale", "-sources", "35", "-pool", "1", "-out", filepath.Join(dir, "scale.json"), "-profile", profDir}
	if err := run(args, &out); err != nil {
		t.Fatalf("scale: %v\n%s", err, out.String())
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(profDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}
