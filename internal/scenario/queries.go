package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/benchmark"
	"thalia/internal/catalog"
	"thalia/internal/hetero"
	"thalia/internal/integration"
	"thalia/internal/mapping"
	"thalia/internal/xmldom"
	"thalia/internal/xquery"
	"thalia/internal/xquery/plan"
)

// QuerySpec is the generated query for one source: the benchmark question
// in both dialects plus the parameters the truth computation needs. Like
// everything else it is a pure function of (seed, source index).
type QuerySpec struct {
	// Source is the source name ("s00042"); doc() URIs append ".xml".
	Source string
	// Case is the source's heterogeneity class; it selects the query family.
	Case hetero.Case
	// Name describes the question, e.g. `courses taught by "Rita Wong"`.
	Name string
	// XQuery asks the question against the reference schema — the text a
	// benchmark Request carries, and what the conformance suite evaluates
	// against the reference document.
	XQuery string
	// ChallengeXQuery asks the same question against the challenge dialect;
	// the scenario mediator compiles and runs this one.
	ChallengeXQuery string
	// Fields is the canonical result-row vocabulary for this family.
	Fields []string

	// Subject, Instructor, Start and Credits are the family parameters,
	// anchored on the source's planted course (index 0) so every query has
	// at least one answer row.
	Subject    string
	Instructor string
	Start      int
	Credits    int // exclusive lower bound for the case-4 credit filter
}

// Spec returns source i's generated query spec.
func (sc *Scenario) Spec(i int) QuerySpec {
	_, spec := sc.gen(i)
	return spec
}

// buildSpec derives source i's query family instance from its planted
// course. Reference queries stay inside the engine subset the canonical
// twelve use: FLWOR over one doc(), '=' with %like% patterns, starts-with,
// numeric comparison.
func (sc *Scenario) buildSpec(i int, cse hetero.Case, subject string, cs []catalog.Course) QuerySpec {
	s := QuerySpec{
		Source:     sc.Name(i),
		Case:       cse,
		Subject:    subject,
		Instructor: cs[0].Instructors[0].Name,
		Start:      cs[0].Start,
		Credits:    cs[0].Credits - 1,
	}
	uri := s.Source + ".xml"
	refFor := fmt.Sprintf("FOR $c in doc(%q)/catalog/course\n", uri)
	chalFor := refFor
	if cse == hetero.LanguageExpression {
		chalFor = fmt.Sprintf("FOR $c in doc(%q)/catalog/Vorlesung\n", uri)
	}
	titleLike := fmt.Sprintf("WHERE $c/title = '%%%s%%'\n", subject)
	const ret = "RETURN $c"

	switch cse {
	case hetero.Synonyms:
		s.Name = fmt.Sprintf("courses taught by %q", s.Instructor)
		s.Fields = []string{"source", "course", "instructor"}
		s.XQuery = refFor + fmt.Sprintf("WHERE $c/instructor = '%s'\n", s.Instructor) + ret
		s.ChallengeXQuery = chalFor + fmt.Sprintf("WHERE $c/lecturer = '%s'\n", s.Instructor) + ret
	case hetero.SimpleMapping:
		s.Name = fmt.Sprintf("courses starting at %s", catalog.Clock24(s.Start))
		s.Fields = []string{"source", "course", "title", "time"}
		s.XQuery = refFor + fmt.Sprintf("WHERE starts-with($c/time, '%s')\n", catalog.Clock24(s.Start)) + ret
		s.ChallengeXQuery = chalFor + fmt.Sprintf("WHERE starts-with($c/time, '%s')\n", catalog.Clock12(s.Start)) + ret
	case hetero.UnionTypes:
		s.Name = fmt.Sprintf("%s courses (hyperlinked titles)", subject)
		s.Fields = []string{"source", "course", "title"}
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.ComplexMappings:
		s.Name = fmt.Sprintf("%s courses worth more than %d credits", subject, s.Credits)
		s.Fields = []string{"source", "course", "title", "credits"}
		s.XQuery = refFor + fmt.Sprintf("WHERE $c/credits > %d and $c/title = '%%%s%%'\n", s.Credits, subject) + ret
		s.ChallengeXQuery = chalFor + titleLike + ret // umfang arithmetic happens in the mediator
	case hetero.LanguageExpression:
		s.Name = fmt.Sprintf("%s courses (German source)", subject)
		s.Fields = []string{"source", "course", "title"}
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + ret // lexicon matching happens in the mediator
	case hetero.Nulls:
		s.Name = fmt.Sprintf("textbooks for %s courses", subject)
		s.Fields = []string{"source", "course", "title", "textbook"}
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.VirtualColumns:
		s.Name = fmt.Sprintf("entry-level %s courses", subject)
		s.Fields = []string{"source", "course", "title"}
		s.XQuery = refFor + fmt.Sprintf("WHERE $c/prerequisite = 'None' and $c/title = '%%%s%%'\n", subject) + ret
		s.ChallengeXQuery = chalFor + titleLike + ret // comment inference happens in the mediator
	case hetero.SemanticIncompatibility:
		s.Name = fmt.Sprintf("%s courses open to juniors", subject)
		s.Fields = []string{"source", "course", "title", "restriction"}
		s.XQuery = refFor + fmt.Sprintf("WHERE $c/title = '%%%s%%' and $c/restriction = '%%JR%%'\n", subject) + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.SameAttributeDifferentStructure:
		s.Name = fmt.Sprintf("rooms for %s courses", subject)
		s.Fields = []string{"source", "course", "title", "room"}
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.HandlingSets:
		s.Name = fmt.Sprintf("instructors of %s courses", subject)
		s.Fields = []string{"source", "course", "title", "instructor"}
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.AttributeNameDoesNotDefineSemantics:
		s.Name = fmt.Sprintf("who teaches %s, and when", subject)
		s.Fields = []string{"source", "course", "title", "instructor", "semester"}
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + titleLike + ret
	case hetero.AttributeComposition:
		s.Name = fmt.Sprintf("meeting times of %s courses", subject)
		s.Fields = []string{"source", "course", "title", "day", "time"}
		s.XQuery = refFor + titleLike + ret
		s.ChallengeXQuery = chalFor + fmt.Sprintf("WHERE $c/listing = '%%%s%%'\n", subject) + ret
	}
	return s
}

// germanLex is the shared (read-only) schema lexicon; truth and mediator
// resolve case-5 values through the same dictionary the canonical testbed
// uses.
var germanLex = mapping.NewGermanLexicon()

// Truth computes source i's expected answer from the ground-truth courses —
// no documents, no XQuery, so the conformance suite can check generator,
// engine and mediator against it independently.
func (sc *Scenario) Truth(i int) []integration.Row {
	cs, spec := sc.gen(i)
	return truthFor(spec, cs)
}

func truthFor(spec QuerySpec, cs []catalog.Course) []integration.Row {
	var rows []integration.Row
	add := func(c *catalog.Course, extra integration.Row) {
		r := integration.Row{"source": spec.Source, "course": c.Number}
		for k, v := range extra {
			r[k] = v
		}
		rows = append(rows, r)
	}
	titleMatch := func(c *catalog.Course) bool { return strings.Contains(c.Title, spec.Subject) }
	for k := range cs {
		c := &cs[k]
		switch spec.Case {
		case hetero.Synonyms:
			for _, in := range c.Instructors {
				if in.Name == spec.Instructor {
					add(c, integration.Row{"instructor": in.Name})
				}
			}
		case hetero.SimpleMapping:
			if c.Start == spec.Start {
				add(c, integration.Row{"title": c.Title, "time": timeRange24(c)})
			}
		case hetero.UnionTypes:
			if titleMatch(c) {
				add(c, integration.Row{"title": c.Title})
			}
		case hetero.ComplexMappings:
			if c.Credits > spec.Credits && titleMatch(c) {
				add(c, integration.Row{"title": c.Title, "credits": strconv.Itoa(c.Credits)})
			}
		case hetero.LanguageExpression:
			if germanLex.ValueContains(c.GermanTitle, spec.Subject) {
				add(c, integration.Row{"title": c.GermanTitle})
			}
		case hetero.Nulls:
			if titleMatch(c) {
				tb := mapping.Missing().Marker()
				if strings.TrimSpace(c.Textbook) != "" {
					tb = mapping.Present(c.Textbook).Marker()
				}
				add(c, integration.Row{"title": c.Title, "textbook": tb})
			}
		case hetero.VirtualColumns:
			if titleMatch(c) && mapping.InferEntryLevel("", c.Comment) {
				add(c, integration.Row{"title": c.Title})
			}
		case hetero.SemanticIncompatibility:
			if titleMatch(c) {
				add(c, integration.Row{"title": c.Title, "restriction": mapping.Inapplicable().Marker()})
			}
		case hetero.SameAttributeDifferentStructure:
			if titleMatch(c) {
				add(c, integration.Row{"title": c.Title, "room": c.Room})
			}
		case hetero.HandlingSets:
			if titleMatch(c) {
				for _, in := range c.Instructors {
					add(c, integration.Row{"title": c.Title, "instructor": in.Name})
				}
			}
		case hetero.AttributeNameDoesNotDefineSemantics:
			if titleMatch(c) {
				add(c, integration.Row{"title": c.Title, "instructor": c.Instructors[0].Name, "semester": c.Semester})
			}
		case hetero.AttributeComposition:
			if titleMatch(c) {
				add(c, integration.Row{"title": c.Title, "day": c.Days, "time": timeRange24(c)})
			}
		}
	}
	return rows
}

// Queries materializes the workload as benchmark queries: query i+1 asks
// source i's question, with Truth(i) as its expected answer. The slice is
// O(sources) metadata (strings); documents are NOT built here — a streaming
// runner materializes them per cell through the mediator's DocSource.
func (sc *Scenario) Queries() []*benchmark.Query {
	qs := make([]*benchmark.Query, sc.p.Sources)
	for i := range qs {
		i := i
		spec := sc.Spec(i)
		qs[i] = benchmark.NewQuery(i+1, spec.Case, spec.Name, spec.XQuery,
			spec.Source+"-ref", spec.Source, spec.Fields,
			func() ([]integration.Row, error) { return sc.Truth(i), nil })
	}
	return qs
}

// RefRows evaluates source i's reference-shaped query against its
// reference document with the compiled-plan engine and extracts canonical
// rows — the differential leg proving that generated query text, rendered
// document and computed truth all agree. checkable is false for the two
// families whose truth bakes in mediation knowledge the reference document
// cannot express (case 5: German values; case 8: inapplicable nulls).
func (sc *Scenario) RefRows(i int) (rows []integration.Row, checkable bool, err error) {
	cs, spec := sc.gen(i)
	if spec.Case == hetero.LanguageExpression || spec.Case == hetero.SemanticIncompatibility {
		return nil, false, nil
	}
	doc := sc.referenceDocument(i, cs)
	els, err := evalToElements(spec.XQuery, spec.Source, doc)
	if err != nil {
		return nil, true, err
	}
	for _, el := range els {
		rows = append(rows, refExtract(spec, el)...)
	}
	return rows, true, nil
}

// evalToElements compiles and runs a one-document query, returning the
// element items.
func evalToElements(query, source string, doc *xmldom.Document) ([]*xmldom.Element, error) {
	p, err := plan.CompileQuery(query)
	if err != nil {
		return nil, fmt.Errorf("scenario: compile %s: %w", source, err)
	}
	uri := source + ".xml"
	ctx := xquery.NewContext(func(u string) (*xmldom.Document, error) {
		if u == uri {
			return doc, nil
		}
		return nil, fmt.Errorf("scenario: no document %q (source %s)", u, source)
	})
	seq, err := p.Eval(ctx)
	if err != nil {
		return nil, fmt.Errorf("scenario: eval %s: %w", source, err)
	}
	var els []*xmldom.Element
	for _, item := range seq {
		if el, ok := item.(*xmldom.Element); ok {
			els = append(els, el)
		}
	}
	return els, nil
}

// refExtract shapes one reference-dialect course element into canonical
// rows for the spec's family.
func refExtract(spec QuerySpec, el *xmldom.Element) []integration.Row {
	var rows []integration.Row
	add := func(extra integration.Row) {
		r := integration.Row{"source": spec.Source, "course": el.ChildText("number")}
		for k, v := range extra {
			r[k] = v
		}
		rows = append(rows, r)
	}
	title := el.ChildText("title")
	switch spec.Case {
	case hetero.Synonyms:
		for _, in := range el.ChildrenNamed("instructor") {
			if in.Text() == spec.Instructor {
				add(integration.Row{"instructor": in.Text()})
			}
		}
	case hetero.SimpleMapping:
		add(integration.Row{"title": title, "time": el.ChildText("time")})
	case hetero.UnionTypes:
		add(integration.Row{"title": title})
	case hetero.ComplexMappings:
		add(integration.Row{"title": title, "credits": el.ChildText("credits")})
	case hetero.Nulls:
		add(integration.Row{"title": title, "textbook": el.ChildText("textbook")})
	case hetero.VirtualColumns:
		add(integration.Row{"title": title})
	case hetero.SameAttributeDifferentStructure:
		add(integration.Row{"title": title, "room": el.ChildText("room")})
	case hetero.HandlingSets:
		for _, in := range el.ChildrenNamed("instructor") {
			add(integration.Row{"title": title, "instructor": in.Text()})
		}
	case hetero.AttributeNameDoesNotDefineSemantics:
		add(integration.Row{"title": title, "instructor": el.ChildText("instructor"), "semester": el.ChildText("semester")})
	case hetero.AttributeComposition:
		add(integration.Row{"title": title, "day": el.ChildText("days"), "time": el.ChildText("time")})
	}
	return rows
}
