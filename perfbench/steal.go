package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor sometimes runs other guests
// on this guest's CPUs. The guest kernel counts that time as steal in
// /proc/stat. While it lasts, every operation takes longer, whatever the
// program does, so its timings say nothing about the program. The steal
// monitor samples the kernel's counters throughout a run, and the
// statistics set aside every sample taken while more than maxSteal of the
// CPU time was stolen, judged over the sample's interval widened by
// stealPad on each side. The widening makes the judgement one about the
// machine at that moment, the same for a fast and a slow sample, so
// setting samples aside does not favour the fast ones. The report says how
// many samples were set aside.

// maxSteal is the largest share of CPU time the hypervisor may steal over
// a sample's interval for the sample to count.
const maxSteal = 0.05

// stealEvery is the monitor's sampling interval.
const stealEvery = 100 * time.Millisecond

// stealPad widens a sample's interval on each side when judging steal.
const stealPad = 500 * time.Millisecond

// sample is one timed operation: when it was due (or started) and when it
// ended.
type sample struct{ start, end time.Time }

func (s sample) ms() float64 { return ms(s.end.Sub(s.start)) }

// stealMonitor records (time, stolen ticks, total ticks) every stealEvery.
// A nil monitor, or one on a system without /proc/stat, keeps every
// sample.
type stealMonitor struct {
	stop chan struct{}
	done chan struct{}

	mu     sync.Mutex
	at     []time.Time
	stolen []uint64
	total  []uint64
}

func startStealMonitor() *stealMonitor {
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			m.read()
			select {
			case <-m.stop:
				m.read()
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// halt stops the monitor and waits for it.
func (m *stealMonitor) halt() {
	close(m.stop)
	<-m.done
}

func (m *stealMonitor) read() {
	stolen, total, err := readCPUTicks()
	if err != nil {
		return
	}
	m.mu.Lock()
	m.at = append(m.at, time.Now())
	m.stolen = append(m.stolen, stolen)
	m.total = append(m.total, total)
	m.mu.Unlock()
}

// readCPUTicks returns the steal and total ticks of the aggregate "cpu"
// line of /proc/stat.
func readCPUTicks() (stolen, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += n
		}
		if i == 7 {
			stolen = n
		}
	}
	return stolen, total, nil
}

// share is the stolen share of CPU time over the smallest sampled window
// that covers [a, b]; ok is false when the window is not covered.
func (m *stealMonitor) share(a, b time.Time) (float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.at)
	// i: last sample at or before a; j: first sample at or after b.
	i := sort.Search(n, func(k int) bool { return m.at[k].After(a) }) - 1
	j := sort.Search(n, func(k int) bool { return !m.at[k].Before(b) })
	if i < 0 || j >= n || j <= i {
		return 0, false
	}
	total := m.total[j] - m.total[i]
	if total == 0 {
		return 0, true
	}
	return float64(m.stolen[j]-m.stolen[i]) / float64(total), true
}

// split returns the latencies, in ms, of the samples taken with at most
// maxSteal of the CPU stolen, and of all the samples.
func (m *stealMonitor) split(samples []sample) (kept, all []float64) {
	for _, s := range samples {
		all = append(all, s.ms())
		if m != nil {
			if sh, ok := m.share(s.start.Add(-stealPad), s.end.Add(stealPad)); ok && sh > maxSteal {
				continue
			}
		}
		kept = append(kept, s.ms())
	}
	return kept, all
}

// stolenShare is the stolen share of CPU time over the whole monitored
// run.
func (m *stealMonitor) stolenShare() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.at)
	if n < 2 || m.total[n-1] == m.total[0] {
		return 0
	}
	return float64(m.stolen[n-1]-m.stolen[0]) / float64(m.total[n-1]-m.total[0])
}

// summarizeClean summarizes the samples the monitor keeps, noting how many
// it set aside. When fewer than 2*minBeyond are kept, too few are left for
// a median with minBeyond samples beyond it; it then summarizes every
// sample, and says so.
func (m *stealMonitor) summarizeClean(rep *report, what string, samples []sample) dist {
	kept, all := m.split(samples)
	if d := summarize(all); len(kept) < len(all) {
		rep.note("%s over all samples: %v", what, d)
	}
	switch dropped := len(all) - len(kept); {
	case dropped == 0:
	case len(kept) < 2*minBeyond:
		rep.note("%s: %d of %d samples ran with more than %.0f%% of the CPU stolen; too many to set aside, so all are kept", what, dropped, len(all), 100*maxSteal)
		return summarize(all)
	default:
		rep.note("%s: set aside %d of %d samples that ran with more than %.0f%% of the CPU stolen", what, dropped, len(all), 100*maxSteal)
	}
	return summarize(kept)
}
