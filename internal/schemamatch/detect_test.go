package schemamatch

import (
	"reflect"
	"testing"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/hetero"
)

// The detector must rediscover, for every benchmark source pair, the
// heterogeneity case the paper assigned to that pair — the manual
// classification of Section 3, automated.
func TestDetectorRecoversAllBenchmarkCases(t *testing.T) {
	m := New()
	for _, q := range benchmark.Queries() {
		ref, err := catalog.Get(q.Reference)
		if err != nil {
			t.Fatal(err)
		}
		chal, err := catalog.Get(q.ChallengeSource)
		if err != nil {
			t.Fatal(err)
		}
		dets, err := m.DetectPair(ref, chal)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		found := false
		for _, d := range dets {
			if d.Case == q.Case {
				found = true
				if d.Evidence == "" {
					t.Errorf("query %d: detection without evidence", q.ID)
				}
			}
		}
		if !found {
			t.Errorf("query %d (%s vs %s): detector missed %v; found %v",
				q.ID, q.Reference, q.ChallengeSource, q.Case, dets)
		}
	}
}

// Detections come back sorted and deduplicable by case.
func TestDetectorOutputShape(t *testing.T) {
	m := New()
	ref, _ := catalog.Get("cmu")
	chal, _ := catalog.Get("eth")
	dets, err := m.DetectPair(ref, chal)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dets); i++ {
		if dets[i-1].Case > dets[i].Case {
			t.Errorf("detections not sorted: %v", dets)
		}
	}
}

// Two structurally identical sources (same style family) exhibit few or no
// heterogeneities beyond incidental nulls — the detector must not see
// phantom language or clock mismatches.
func TestDetectorQuietOnHomogeneousPair(t *testing.T) {
	m := New()
	a, err := catalog.Get("wisconsin")
	if err != nil {
		t.Fatal(err)
	}
	b, err := catalog.Get("utexas")
	if err != nil {
		t.Fatal(err)
	}
	dets, err := m.DetectPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dets {
		switch d.Case {
		case hetero.Synonyms, hetero.LanguageExpression, hetero.SimpleMapping,
			hetero.ComplexMappings, hetero.UnionTypes:
			t.Errorf("phantom detection on homogeneous pair: %v (%s)", d.Case, d.Evidence)
		}
	}
}

// The German pair (same language, same conventions) must not trigger the
// language case against itself.
func TestDetectorGermanPairNoLanguageCase(t *testing.T) {
	m := New()
	a, _ := catalog.Get("tum")
	b, _ := catalog.Get("karlsruhe")
	dets, err := m.DetectPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dets {
		if d.Case == hetero.LanguageExpression {
			t.Errorf("tum vs karlsruhe should not exhibit case 5: %s", d.Evidence)
		}
	}
}

// DetectPair is deterministic: the same pair always yields the same cases
// with the same evidence, so `thalia detect` output is reproducible.
func TestDetectPairDeterministic(t *testing.T) {
	m := New()
	for _, q := range benchmark.Queries() {
		ref, err := catalog.Get(q.Reference)
		if err != nil {
			t.Fatal(err)
		}
		chal, err := catalog.Get(q.ChallengeSource)
		if err != nil {
			t.Fatal(err)
		}
		first, err := m.DetectPair(ref, chal)
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		for i := 1; i < 20; i++ {
			got, err := m.DetectPair(ref, chal)
			if err != nil {
				t.Fatalf("query %d: %v", q.ID, err)
			}
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("query %d (%s vs %s), repeat %d:\n got %v\nwant %v",
					q.ID, q.Reference, q.ChallengeSource, i, got, first)
			}
		}
	}
}
