package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"thalia/internal/xmldom"
)

// generatorDigest pins everything the generator emits for sources 0..1999
// of two mixes at seed 7: the indented reference document, the challenge
// XML, the query spec, the truth rows, the ground-truth courses and the
// reference-leg rows. Any change to an RNG draw, a vocabulary table or a
// rendering detail changes it; a pure performance rewrite must not.
const generatorDigest = "762d5b069591751ad11d88d9c9c9f0c8563328026f403e23492f3f4db4f97416"

func TestGeneratorDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("4000-source digest; skipped with -short")
	}
	h := sha256.New()
	for _, mix := range []string{"uniform", "nulls,sets:3,language:2"} {
		m, err := ParseMix(mix)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := New(Params{Sources: 2000, Seed: 7, Mix: m})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sc.Sources(); i++ {
			if err := sc.ReferenceDocument(i).WriteTo(h, xmldom.WriteOptions{Indent: "  "}); err != nil {
				t.Fatal(err)
			}
			rows, checkable, err := sc.RefRows(i)
			fmt.Fprintf(h, "%s\n%+v\n%v\n%+v\n%v %v %v\n",
				sc.ChallengeXML(i), sc.Spec(i), sc.Truth(i), sc.Courses(i), rows, checkable, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatorDigest {
		t.Errorf("generator digest = %s, want %s: generated output changed", got, generatorDigest)
	}
}

// TestCourseNumberPastTable covers the course numbers on both sides of the
// pre-rendered table, which the digest's default-size catalogs never leave.
func TestCourseNumberPastTable(t *testing.T) {
	for j := 0; j < 2*MaxSize; j++ {
		if got, want := courseNumber(j), fmt.Sprintf("CS%d", 100+j); got != want {
			t.Fatalf("courseNumber(%d) = %q, want %q", j, got, want)
		}
	}
}
