package scenario

import (
	"sync"

	"thalia/internal/xmldom"
)

// DocSource materializes challenge documents on demand and releases them —
// the streaming evaluation's memory bound. A document lives exactly as
// long as some cell holds a reference to it, so a run over any number of
// sources keeps O(worker pool) documents live, never O(sources).
//
// Each build generates the source once and keeps its QuerySpec beside the
// document, so a holder gets the query and the document it runs against
// from a single generator call.
//
// Regeneration is free of coordination hazards because documents are pure
// functions of (seed, index): concurrent acquirers of the same source can
// each build the document and any copy is interchangeable.
type DocSource struct {
	sc *Scenario

	mu        sync.Mutex
	live      map[int]*docEntry
	builds    int
	highWater int
}

type docEntry struct {
	doc  *xmldom.Document
	spec QuerySpec
	refs int
}

// NewDocSource returns an empty source over the scenario.
func NewDocSource(sc *Scenario) *DocSource {
	return &DocSource{sc: sc, live: map[int]*docEntry{}}
}

// Acquire returns source i's challenge document and query spec, building
// them if no holder exists, and takes a reference. Every Acquire must be
// paired with a Release or the memory bound degrades to O(sources).
func (ds *DocSource) Acquire(i int) (*xmldom.Document, QuerySpec) {
	ds.mu.Lock()
	if e, ok := ds.live[i]; ok {
		e.refs++
		ds.mu.Unlock()
		return e.doc, e.spec
	}
	ds.mu.Unlock()
	// Built outside the lock; builds may race.
	cs, spec := ds.sc.gen(i)
	doc := ds.sc.challengeDocument(i, cs, spec.Case)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if e, ok := ds.live[i]; ok { // another acquirer won; share its copy
		e.refs++
		return e.doc, e.spec
	}
	ds.builds++
	ds.live[i] = &docEntry{doc: doc, spec: spec, refs: 1}
	if len(ds.live) > ds.highWater {
		ds.highWater = len(ds.live)
	}
	return doc, spec
}

// Release drops one reference to source i; the last release frees the
// document.
func (ds *DocSource) Release(i int) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if e, ok := ds.live[i]; ok {
		if e.refs--; e.refs <= 0 {
			delete(ds.live, i)
		}
	}
}

// Stats reports how many documents were ever built, how many are live now,
// and the peak simultaneous count — the number the streaming regression
// test asserts stays bounded by the worker pool.
func (ds *DocSource) Stats() (builds, live, highWater int) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.builds, len(ds.live), ds.highWater
}
