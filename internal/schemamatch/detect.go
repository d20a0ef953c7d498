package schemamatch

import (
	"regexp"
	"sort"
	"strconv"
	"strings"

	"thalia/internal/catalog"
	"thalia/internal/hetero"
	"thalia/internal/mapping"
	"thalia/internal/xmldom"
)

// Detection is one heterogeneity the detector believes a source pair
// exhibits, with the evidence that triggered it.
type Detection struct {
	Case     hetero.Case
	Evidence string
}

// conceptInfo is what the detector knows about one concept in one source.
type conceptInfo struct {
	element   string
	depth     int // element depth below the root (course child = 2)
	evidence  string
	samples   []string
	mixed     bool // markup-mixed leaf (string + links), the union type
	repeated  bool // more than one element of this concept per course
	optional  bool // absent from some courses
	emptyVals bool // present but sometimes empty
}

// conceptOrder is the fixed order in which DetectPair's rules consider
// concepts: the declaration order of the global vocabulary. Rules that
// report one example concept report the first qualifying one in this order
// rather than whichever a map range happens to yield first.
var conceptOrder = []Concept{
	ConceptCourse, ConceptNumber, ConceptTitle, ConceptInstructor, ConceptTime, ConceptDay,
	ConceptRoom, ConceptCredits, ConceptTextbook, ConceptPrereq, ConceptRestrict, ConceptSection,
}

// firstShared returns the first concept in conceptOrder that both profiles
// contain and whose pair of infos satisfies pred.
func firstShared(a, b map[Concept]*conceptInfo, pred func(ia, ib *conceptInfo) bool) (Concept, bool) {
	for _, c := range conceptOrder {
		ia, okA := a[c]
		ib, okB := b[c]
		if okA && okB && pred(ia, ib) {
			return c, true
		}
	}
	return ConceptUnknown, false
}

// profile builds the concept map of one source: concept → info about the
// best-matching element. Markup leaves (elements whose only child elements
// are anchors) count as leaves, so Brown's hyperlinked columns profile too.
func (m *Matcher) profile(src *catalog.Source) (map[Concept]*conceptInfo, error) {
	doc, err := src.Document()
	if err != nil {
		return nil, err
	}
	type elemStat struct {
		depth           int
		samples         []string
		mixed           bool
		perCourseCounts map[*xmldom.Element]int
		emptyVals       bool
	}
	stats := map[string]*elemStat{}
	courses := doc.Root.ChildElements()
	var walk func(el *xmldom.Element, course *xmldom.Element, depth int)
	walk = func(el *xmldom.Element, course *xmldom.Element, depth int) {
		for _, c := range el.ChildElements() {
			leaf, mixed := effectiveLeaf(c)
			if leaf {
				st := stats[c.Name]
				if st == nil {
					st = &elemStat{depth: depth + 1, perCourseCounts: map[*xmldom.Element]int{}}
					stats[c.Name] = st
				}
				st.perCourseCounts[course]++
				if mixed {
					st.mixed = true
				}
				v := strings.TrimSpace(c.DeepText())
				if v == "" {
					st.emptyVals = true
				} else if len(st.samples) < 20 {
					st.samples = append(st.samples, v)
				}
				continue
			}
			walk(c, course, depth+1)
		}
	}
	for _, course := range courses {
		walk(course, course, 1)
	}

	out := map[Concept]*conceptInfo{}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		st := stats[name]
		cand := m.Match(name, st.samples)
		if cand.Concept == ConceptUnknown {
			continue
		}
		info := &conceptInfo{
			element:   name,
			depth:     st.depth + 1, // +1 for the course element itself
			evidence:  cand.Evidence,
			samples:   st.samples,
			mixed:     st.mixed,
			optional:  len(st.perCourseCounts) < len(courses),
			emptyVals: st.emptyVals,
		}
		for _, n := range st.perCourseCounts {
			if n > 1 {
				info.repeated = true
			}
		}
		// Prefer the dictionary/lexicon hit if two elements map to the same
		// concept; otherwise keep the first (sorted) one.
		if prev, ok := out[cand.Concept]; !ok || betterEvidence(cand.Evidence, prev.evidence) {
			out[cand.Concept] = info
		}
	}
	return out, nil
}

// effectiveLeaf reports whether el is a leaf for profiling purposes: no
// child elements, or only anchor children (a markup-mixed value).
func effectiveLeaf(el *xmldom.Element) (leaf, mixed bool) {
	children := el.ChildElements()
	if len(children) == 0 {
		return true, false
	}
	for _, c := range children {
		if c.Name != "a" {
			return false, false
		}
	}
	return true, true
}

func betterEvidence(a, b string) bool {
	rank := map[string]int{"dictionary": 3, "lexicon": 2, "instance": 1, "name": 0}
	return rank[a] > rank[b]
}

var (
	hasAMPM     = regexp.MustCompile(`(?i)\b(am|pm)\b|[0-9](am|pm)`)
	has24Hour   = regexp.MustCompile(`\b(1[3-9]|2[0-3]):[0-5][0-9]`)
	numericOnly = regexp.MustCompile(`^\d+$`)
)

// DetectPair profiles two sources and reports which of the twelve
// heterogeneity cases the pair appears to exhibit — the paper's manual
// classification, operationalized. Heuristics are deliberately conservative:
// a reported case carries concrete evidence, but absence of a report is not
// proof of homogeneity. The result, evidence included, is deterministic.
func (m *Matcher) DetectPair(ref, chal *catalog.Source) ([]Detection, error) {
	a, err := m.profile(ref)
	if err != nil {
		return nil, err
	}
	b, err := m.profile(chal)
	if err != nil {
		return nil, err
	}
	var out []Detection
	add := func(c hetero.Case, evidence string) {
		out = append(out, Detection{Case: c, Evidence: evidence})
	}

	// Case 1 — Synonyms: a shared concept under different element names.
	if c, ok := firstShared(a, b, func(ia, ib *conceptInfo) bool { return ia.element != ib.element }); ok {
		add(hetero.Synonyms, string(c)+": "+ref.Name+"/"+a[c].element+" vs "+chal.Name+"/"+b[c].element)
	}

	// Case 5 — Language expression: a concept resolved through the lexicon
	// on exactly one side.
	if c, ok := firstShared(a, b, func(ia, ib *conceptInfo) bool {
		return (ia.evidence == "lexicon") != (ib.evidence == "lexicon")
	}); ok {
		add(hetero.LanguageExpression, string(c)+" named in another language")
	}

	// Case 2 — Simple mapping: the time concept is spelled on different
	// clocks (12-hour markers on one side, 24-hour hours on the other).
	if ia, ok := a[ConceptTime]; ok {
		if ib, ok := b[ConceptTime]; ok {
			aStyle := clockStyle(ia.samples)
			bStyle := clockStyle(ib.samples)
			if aStyle != "" && bStyle != "" && aStyle != bStyle {
				add(hetero.SimpleMapping, "time spelled "+aStyle+" vs "+bStyle)
			}
		}
	}

	// Case 3 — Union types: a concept is plain text on one side and
	// string-plus-link markup on the other.
	if c, ok := firstShared(a, b, func(ia, ib *conceptInfo) bool { return ia.mixed != ib.mixed }); ok {
		add(hetero.UnionTypes, string(c)+" is a string-plus-link union on one side")
	}

	// Case 4 — Complex mappings: the credits concept is a plain number on
	// one side and a non-numeric notation (ETH's "2V1U") on the other.
	if ia, ok := a[ConceptCredits]; ok {
		if ib, ok := b[ConceptCredits]; ok {
			an, bn := allNumeric(ia.samples), allNumeric(ib.samples)
			if an != bn {
				add(hetero.ComplexMappings, "credits numeric vs notation (e.g. "+firstSample(ia, ib, !an)+")")
			}
		}
	}

	// Case 6 — Nulls: a shared concept that is optional or empty-valued on
	// at least one side.
	if c, ok := firstShared(a, b, func(ia, ib *conceptInfo) bool {
		return ia.optional || ib.optional || ia.emptyVals || ib.emptyVals
	}); ok {
		add(hetero.Nulls, string(c)+" missing or empty for some courses")
	}

	// Case 7 — Virtual columns: a concept explicit on one side exists only
	// implicitly on the other, inside a free-text comment-like element.
	// Case 8 — Semantic incompatibility: a concept modeled on one side does
	// not exist at all on the other.
	for _, concept := range []Concept{ConceptRestrict, ConceptPrereq} {
		_, inA := a[concept]
		_, inB := b[concept]
		if inA == inB {
			continue
		}
		missingSrc := chal
		if inB {
			missingSrc = ref
		}
		if el, ok := commentElement(missingSrc); ok {
			add(hetero.VirtualColumns,
				string(concept)+" only implicit in "+missingSrc.Name+"/"+el)
		} else {
			add(hetero.SemanticIncompatibility, string(concept)+" concept exists on one side only")
		}
		break
	}

	// Case 9 — Same attribute in different structure: a shared concept at
	// different depths (course-level vs nested under sections), or a concept
	// explicit on one side but buried inside another concept's values on the
	// other (Maryland's room inside Section/Time).
	if c, ok := firstShared(a, b, func(ia, ib *conceptInfo) bool { return ia.depth != ib.depth }); ok {
		add(hetero.SameAttributeDifferentStructure,
			string(c)+" at depth "+strconv.Itoa(a[c].depth)+" vs "+strconv.Itoa(b[c].depth))
	} else {
		_, inA := a[ConceptRoom]
		_, inB := b[ConceptRoom]
		if inA != inB {
			other := b
			if inB {
				other = a
			}
			if it, ok := other[ConceptTime]; ok && roomEmbedded(it.samples) {
				add(hetero.SameAttributeDifferentStructure,
					"room embedded in the other side's "+it.element+" values")
			}
		}
	}

	// Case 10 — Handling sets: a concept that is set-valued in one source
	// (slash-separated values or repeated elements) and single-valued in the
	// other — including the Maryland shape, where instructors live inside a
	// repeated section concept rather than an instructor element.
	ia10, inA10 := a[ConceptInstructor]
	ib10, inB10 := b[ConceptInstructor]
	switch {
	case inA10 && inB10:
		aSet := ia10.repeated || hasSlashValues(ia10.samples)
		bSet := ib10.repeated || hasSlashValues(ib10.samples)
		if aSet != bSet {
			add(hetero.HandlingSets, "instructor set-valued on one side")
		}
	case inA10 != inB10:
		other := b
		if inB10 {
			other = a
		}
		if is, ok := other[ConceptSection]; ok && is.repeated && namesEmbedded(is.samples) {
			add(hetero.HandlingSets, "instructors inside repeated "+is.element+" values")
		}
	}

	// Case 11 — Attribute name does not define semantics: a concept that
	// could only be recovered from instance evidence.
	// The challenge side's element is reported when both sides qualify.
	for _, c := range conceptOrder {
		info := b[c]
		if info == nil || info.evidence != "instance" {
			info = a[c]
		}
		if info != nil && info.evidence == "instance" {
			add(hetero.AttributeNameDoesNotDefineSemantics,
				info.element+" matched "+string(c)+" by values only")
			break
		}
	}

	// Case 12 — Attribute composition: one side's title values embed a
	// decomposable schedule part that the other side keeps in separate
	// elements.
	if ia, ok := a[ConceptTitle]; ok {
		if ib, ok := b[ConceptTitle]; ok {
			if composite(ia.samples) != composite(ib.samples) {
				add(hetero.AttributeComposition, "title embeds day/time on one side")
			}
		}
	}

	sort.Slice(out, func(i, j int) bool { return out[i].Case < out[j].Case })
	return out, nil
}

func clockStyle(samples []string) string {
	am, h24 := false, false
	for _, s := range samples {
		if hasAMPM.MatchString(s) {
			am = true
		}
		if has24Hour.MatchString(s) {
			h24 = true
		}
	}
	switch {
	case am && !h24:
		return "12-hour"
	case h24 && !am:
		return "24-hour"
	case !am && !h24 && len(samples) > 0:
		return "bare-12-hour"
	default:
		return ""
	}
}

func allNumeric(samples []string) bool {
	if len(samples) == 0 {
		return false
	}
	for _, s := range samples {
		if !numericOnly.MatchString(strings.TrimSpace(s)) {
			return false
		}
	}
	return true
}

func firstSample(a, b *conceptInfo, fromA bool) string {
	info := b
	if fromA {
		info = a
	}
	if len(info.samples) > 0 {
		return info.samples[0]
	}
	return "?"
}

func hasSlashValues(samples []string) bool {
	for _, s := range samples {
		if strings.Contains(s, "/") {
			return true
		}
	}
	return false
}

// composite reports whether title values look like Brown's run-on column:
// a title with an embedded " hr. " schedule part.
func composite(samples []string) bool {
	for _, s := range samples {
		if mapping.DecomposeBrownTitle(s).Time != "" {
			return true
		}
	}
	return false
}

// commentElement finds a free-text comment-like element in a source, the
// hiding place of virtual columns (case 7).
func commentElement(src *catalog.Source) (string, bool) {
	doc, err := src.Document()
	if err != nil {
		return "", false
	}
	for _, el := range doc.Root.Descendants("*") {
		switch strings.ToLower(el.Name) {
		case "comment", "notes", "note", "remark", "remarks":
			return el.Name, true
		}
	}
	return "", false
}

// roomEmbedded reports whether time-ish values carry a trailing room token.
func roomEmbedded(samples []string) bool {
	for _, s := range samples {
		fields := strings.Fields(s)
		if len(fields) < 2 {
			continue
		}
		if looksLikeRoom(fields[len(fields)-1]) {
			return true
		}
	}
	return false
}

// namesEmbedded reports whether section-title values carry person names
// (Maryland's "0101(13795) Singh, H.").
func namesEmbedded(samples []string) bool {
	for _, s := range samples {
		if sec, err := mapping.ParseUMDSection(s); err == nil && looksLikePersonName(sec.Teacher) {
			return true
		}
	}
	return false
}
