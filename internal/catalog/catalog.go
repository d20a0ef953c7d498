// Package catalog is the THALIA testbed: a collection of 25 university
// course-catalog sources. The paper's testbed serves cached snapshots of
// real course-catalog web pages, each extracted to XML by a source-specific
// TESS wrapper; this package generates equivalent snapshots synthetically
// and deterministically, embedding exactly the syntactic and semantic
// heterogeneities the paper attributes to each source (its sample elements
// are reproduced verbatim).
//
// Every source provides three artifacts, mirroring the THALIA web site:
// the original HTML page (Figure 1/2), the extracted XML document
// (Figure 3, left), and the inferred XML Schema (Figure 3, right).
package catalog

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"thalia/internal/hetero"
	"thalia/internal/tess"
	"thalia/internal/xmldom"
	"thalia/internal/xsd"
)

// Instructor is a course instructor, possibly with a home page. Without
// deep extraction TESS surfaces the home-page URL as the extracted value;
// with the deep-extraction extension the linked page's fields (first name,
// specialty — the paper's own examples) become available.
type Instructor struct {
	Name      string
	Home      string
	First     string // first name, shown on the instructor's home page
	Specialty string // research specialty, shown on the home page
}

// Section is one meeting section of a course, for sources (like Maryland)
// that model sections explicitly.
type Section struct {
	Num      string // e.g. "0101"
	ID       string // registrar id, e.g. "13795"
	Teacher  string // "Singh, H."
	Days     string // "MWF"
	Time     string // source-local spelling, e.g. "10:00am"
	Room     string
	Seats    int
	Open     int
	Waitlist int
}

// Course is the uniform internal representation behind every source. Each
// university's renderer projects it into that school's idiosyncratic HTML;
// heterogeneity lives in the renderers and wrapper configs, not here.
type Course struct {
	Number      string
	Title       string
	TitleURL    string // some catalogs hyperlink the title
	GermanTitle string // German-language sources use this instead (case 5)
	Instructors []Instructor
	Days        string // canonical day codes: "MWF", "TTh", "F", ...
	Start       int    // minutes since midnight, canonical 24h
	End         int
	Room        string
	LabRoom     string // Brown lists lab rooms inside the Room column
	Credits     int    // canonical credit hours
	UnitsNote   string // ETH's workload notation, e.g. "2V1U" (case 4)
	Description string
	Prereq      string // "" means no prerequisite information
	Textbook    string // "" models a missing textbook (case 6)
	Restrict    string // e.g. "JR or SR" (case 8); inapplicable outside the US
	Comment     string // free-text comment, e.g. "First course in sequence" (case 7)
	Semester    string // term the course runs in, e.g. "Fall 2003" (case 11)
	Sections    []Section
}

// Source is one university catalog in the testbed.
type Source struct {
	// Name is the short key used in doc() URIs, e.g. "brown" → "brown.xml".
	Name string
	// University is the full institution name.
	University string
	// Country locates the institution; German-language sources matter for
	// the language-expression heterogeneity (case 5).
	Country string
	// Style summarizes the source's schema idiosyncrasy for documentation
	// and the web site's browse page.
	Style string
	// Exhibits lists the heterogeneity cases this source showcases.
	Exhibits []hetero.Case

	// Courses is the course data behind the page.
	Courses []Course
	// RenderHTML produces the cached "original" catalog page.
	RenderHTML func(s *Source) string
	// Wrapper is the TESS configuration that extracts the page.
	Wrapper func() *tess.Config
	// Linked holds the cached pages hyperlinked from the catalog page
	// (instructor home pages), keyed by URL; used by deep extraction.
	Linked map[string]string

	mu    sync.Mutex
	ready bool
	page  string
	doc   *xmldom.Document
	sch   *xsd.Schema
}

// Fetch resolves a hyperlink against the source's cached linked pages; it
// is the tess.Fetcher for deep extraction over this source.
func (s *Source) Fetch(url string) (string, error) {
	page, ok := s.Linked[url]
	if !ok {
		return "", fmt.Errorf("catalog %s: no cached page for %q", s.Name, url)
	}
	return page, nil
}

// Page returns the source's cached HTML snapshot. Rendering cannot fail,
// so the page is available even when extraction or inference is not.
func (s *Source) Page() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pageLocked()
}

// pageLocked renders and caches the HTML snapshot. Caller holds s.mu.
func (s *Source) pageLocked() string {
	if s.page == "" {
		s.page = s.RenderHTML(s)
	}
	return s.page
}

// Document returns the extracted XML document (the TESS output). The
// document is shared; callers must not mutate it — Clone the root first.
func (s *Source) Document() (*xmldom.Document, error) {
	if err := s.materialize(); err != nil {
		return nil, err
	}
	return s.doc, nil
}

// NameIndex returns the by-name element index over the materialized
// document. The document is memoized by materialize and the index by
// Document.NameIndex, so both are built at most once per source and shared
// by every evaluation — the path/value indexes the compiled-plan engine
// consults.
func (s *Source) NameIndex() (*xmldom.NameIndex, error) {
	doc, err := s.Document()
	if err != nil {
		return nil, err
	}
	return doc.NameIndex(), nil
}

// Schema returns the XML Schema inferred from the extracted document, as
// published alongside each catalog on the THALIA site.
func (s *Source) Schema() (*xsd.Schema, error) {
	if err := s.materialize(); err != nil {
		return nil, err
	}
	return s.sch, nil
}

// XML returns the extracted document serialized with indentation.
func (s *Source) XML() (string, error) {
	d, err := s.Document()
	if err != nil {
		return "", err
	}
	return d.Encode(), nil
}

// materialize runs the render→extract→infer pipeline, caching the result
// only when the whole pipeline succeeded. Page, Document, Schema and XML
// are safe for concurrent use: the first caller (whichever goroutine wins
// the mutex) materializes, every later caller — including concurrent
// benchmark evaluations across systems — shares the cached page, parsed
// document and inferred schema instead of re-materializing. The shared
// document is read-only by contract.
//
// Errors are returned but never cached, and the document and schema are
// published together or not at all: a transiently failing wrapper (a
// fault-injected extraction, say) fails the calls that hit it and heals on
// the next one, instead of permanently poisoning the source or exposing a
// document without its schema.
func (s *Source) materialize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ready {
		return nil
	}
	page := s.pageLocked()
	cfg := s.Wrapper()
	doc, err := tess.Extract(cfg, page)
	if err != nil {
		return fmt.Errorf("catalog %s: extract: %w", s.Name, err)
	}
	sch, err := xsd.Infer(s.Name, doc)
	if err != nil {
		return fmt.Errorf("catalog %s: infer schema: %w", s.Name, err)
	}
	s.doc, s.sch = doc, sch
	s.ready = true
	return nil
}

// MaterializeAll warms the whole testbed concurrently: every source's
// render→extract→infer pipeline runs at most once (the sync.Once cache),
// fanned out over up to `workers` goroutines (≤0 means one per source).
// Useful before a concurrent benchmark run so the first wave of query cells
// doesn't serialize on cold sources. Returns the first materialization
// error encountered, if any; the remaining sources are still warmed.
func MaterializeAll(workers int) error {
	sources := All()
	if workers <= 0 || workers > len(sources) {
		workers = len(sources)
	}
	jobs := make(chan *Source)
	errs := make(chan error)
	for w := 0; w < workers; w++ {
		go func() {
			var first error
			for s := range jobs {
				if _, err := s.Document(); err != nil && first == nil {
					first = err
				}
			}
			errs <- first
		}()
	}
	for _, s := range sources {
		jobs <- s
	}
	close(jobs)
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

var (
	registryMu sync.Mutex
	registry   = map[string]*Source{}
)

// register adds a source; called from each source file's init.
func register(s *Source) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("catalog: duplicate source " + s.Name)
	}
	registry[s.Name] = s
}

// Get returns the named source, or an error listing what exists.
func Get(name string) (*Source, error) {
	registryMu.Lock()
	defer registryMu.Unlock()
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no source %q (have %d sources)", name, len(registry))
	}
	return s, nil
}

// All returns every source, sorted by name.
func All() []*Source {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]*Source, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted short names of all sources.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// Resolver returns an xquery-compatible document resolver over the testbed:
// "brown.xml" (or "brown") resolves to the brown source's extracted XML.
func Resolver() func(uri string) (*xmldom.Document, error) {
	return func(uri string) (*xmldom.Document, error) {
		name := uri
		if len(name) > 4 && name[len(name)-4:] == ".xml" {
			name = name[:len(name)-4]
		}
		s, err := Get(name)
		if err != nil {
			return nil, err
		}
		return s.Document()
	}
}

// Clock12 formats minutes-since-midnight on a 12-hour clock ("1:30pm").
func Clock12(min int) string {
	suffix := "am"
	if min/60 >= 12 {
		suffix = "pm"
	}
	var buf [24]byte
	return string(append(appendClock12(buf[:0], min), suffix...))
}

// Clock12Bare formats like Clock12 but without the am/pm marker, the way
// CMU's catalog prints "1:30 - 2:50".
func Clock12Bare(min int) string {
	var buf [24]byte
	return string(appendClock12(buf[:0], min))
}

// Clock24 formats minutes-since-midnight on a 24-hour clock ("13:30").
func Clock24(min int) string {
	var buf [24]byte
	b := appendPad2(buf[:0], min/60)
	b = append(b, ':')
	return string(appendPad2(b, min%60))
}

// appendClock12 appends "h:mm" on a 12-hour dial, hour 0 reading as 12.
func appendClock12(b []byte, min int) []byte {
	h12 := min / 60 % 12
	if h12 == 0 {
		h12 = 12
	}
	b = strconv.AppendInt(b, int64(h12), 10)
	b = append(b, ':')
	return appendPad2(b, min%60)
}

// appendPad2 appends n in decimal, zero-padded to two digits like fmt's
// "%02d".
func appendPad2(b []byte, n int) []byte {
	if n >= 0 && n < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}
