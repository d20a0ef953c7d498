package hetero_test

import (
	"reflect"
	"testing"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/hetero"
)

// DetectDocs is calibrated on generated scenario pairs, which differ in one
// class only. On the paper's hand-picked benchmark pairs, which differ in
// many ways at once, it names the paper's case for just five of the twelve
// queries. This pins that measurement, so a change to either detector that
// moves it is a deliberate, visible one.
func TestDetectDocsOnBenchmarkPairs(t *testing.T) {
	var hits []int
	for _, q := range benchmark.Queries() {
		ref, err := catalog.Get(q.Reference)
		if err != nil {
			t.Fatal(err)
		}
		chal, err := catalog.Get(q.ChallengeSource)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := ref.Document()
		if err != nil {
			t.Fatal(err)
		}
		cd, err := chal.Document()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range hetero.DetectDocs(rd, cd) {
			if c == q.Case {
				hits = append(hits, q.ID)
			}
		}
	}
	if want := []int{1, 4, 5, 7, 11}; !reflect.DeepEqual(hits, want) {
		t.Errorf("DetectDocs names the paper's case for queries %v, want %v", hits, want)
	}
}
