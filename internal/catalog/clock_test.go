package catalog

import (
	"fmt"
	"testing"
)

// TestClocksMatchFmt checks the clock formatters against their fmt
// spellings over every minute of the day, plus out-of-range values that
// still must format the way "%d"/"%02d" would.
func TestClocksMatchFmt(t *testing.T) {
	clock12 := func(min int) (h12, m int) {
		h12, m = min/60%12, min%60
		if h12 == 0 {
			h12 = 12
		}
		return h12, m
	}
	check := func(min int) {
		h12, m := clock12(min)
		suffix := "am"
		if min/60 >= 12 {
			suffix = "pm"
		}
		if got, want := Clock24(min), fmt.Sprintf("%02d:%02d", min/60, min%60); got != want {
			t.Errorf("Clock24(%d) = %q, want %q", min, got, want)
		}
		if got, want := Clock12(min), fmt.Sprintf("%d:%02d%s", h12, m, suffix); got != want {
			t.Errorf("Clock12(%d) = %q, want %q", min, got, want)
		}
		if got, want := Clock12Bare(min), fmt.Sprintf("%d:%02d", h12, m); got != want {
			t.Errorf("Clock12Bare(%d) = %q, want %q", min, got, want)
		}
	}
	for min := 0; min < 24*60; min++ {
		check(min)
	}
	for _, min := range []int{-1, -59, -61, -720, 1440, 1500, 6000, 100000} {
		check(min)
	}
	if got := Clock24(13*60 + 5); got != "13:05" {
		t.Errorf("Clock24(13:05) = %q", got)
	}
	if got := Clock12(13*60 + 30); got != "1:30pm" {
		t.Errorf("Clock12(13:30) = %q", got)
	}
}
