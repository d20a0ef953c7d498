package scenario

import (
	"testing"

	"thalia/internal/integration"
)

// answerAllocCeiling bounds the allocations of one Mediator.Answer on
// allocSource: generating the source once, rendering its challenge
// document from slabs, compiling and running the query, and shaping rows.
// With table-driven courses and slab-built elements it measured 426
// allocations per call (go1.24, linux/amd64), down from 1505 when courses
// were formatted field by field and the source was generated twice. The
// source has 19 courses, so the headroom is smaller than one extra
// allocation per course: one creeping back in fails the test.
const answerAllocCeiling = 440

// allocParams and allocSource fix the source the allocation guard and
// BenchmarkMediatorAnswer measure.
var allocParams = Params{Sources: 12, Seed: 7}

const allocSource = 3

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

func TestMediatorAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	sc, err := New(allocParams)
	if err != nil {
		t.Fatal(err)
	}
	med := sc.NewMediator()
	req := integration.Request{QueryID: allocSource + 1, Challenge: sc.Name(allocSource)}
	if _, err := med.Answer(req); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := med.Answer(req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Mediator.Answer: %.0f allocs/op", got)
	if got > answerAllocCeiling {
		t.Errorf("Mediator.Answer allocates %.0f times per call, ceiling %d", got, answerAllocCeiling)
	}
}

func BenchmarkMediatorAnswer(b *testing.B) {
	sc, err := New(allocParams)
	if err != nil {
		b.Fatal(err)
	}
	med := sc.NewMediator()
	req := integration.Request{QueryID: allocSource + 1, Challenge: sc.Name(allocSource)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ans, err := med.Answer(req)
		if err != nil {
			b.Fatal(err)
		}
		answerSink = ans
	}
}

// answerSink keeps BenchmarkMediatorAnswer's result live.
var answerSink *integration.Answer
