package catalog

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/hetero"
	"thalia/internal/tess"
)

// University of Toronto: the reference schema for the Nulls query. Its
// lowercase schema has a "text" element carrying the course textbook; some
// courses have no textbook listed at all, so the element is simply absent —
// the schema-level footprint of missing data (case 6).
func init() {
	courses := []Course{
		{
			Number:      "CSC410",
			Title:       "Automated Verification",
			Instructors: []Instructor{{Name: "Chechik"}},
			Days:        "TTh",
			Start:       11 * 60,
			End:         12 * 60,
			Room:        "BA 1130",
			Credits:     3,
			Textbook:    "'Model Checking', by Clarke, Grumberg, Peled, 1999, MIT Press.",
		},
		{
			Number:      "CSC443",
			Title:       "Database System Technology",
			Instructors: []Instructor{{Name: "Miller"}},
			Days:        "MWF",
			Start:       14 * 60,
			End:         15 * 60,
			Room:        "BA 1170",
			Credits:     3,
			Textbook:    "Database Management Systems (Ramakrishnan)",
		},
		{
			Number:      "CSC465",
			Title:       "Formal Methods in Software Design",
			Instructors: []Instructor{{Name: "Hehner"}},
			Days:        "MW",
			Start:       10 * 60,
			End:         11 * 60,
			Room:        "BA 2175",
			Credits:     3,
			// No textbook listed: the element is absent in the extraction.
		},
	}
	for i, p := range poolSlice("toronto", 10) {
		tb := p.Textbook
		if i%3 == 1 {
			tb = "" // a third of filler courses list no textbook
		}
		courses = append(courses, Course{
			Number:      fmt.Sprintf("CSC%d", 100+p.Num),
			Title:       p.Title,
			Instructors: []Instructor{{Name: p.Surname}},
			Days:        p.Days,
			Start:       p.Start,
			End:         p.End,
			Room:        "BA " + strconv.Itoa(1000+i*57),
			Credits:     p.Credits,
			Textbook:    tb,
		})
	}

	register(&Source{
		Name:       "toronto",
		University: "University of Toronto",
		Country:    "Canada",
		Style:      `lowercase element names; textbook in a "text" element that is absent when no book is assigned`,
		Exhibits:   []hetero.Case{hetero.Synonyms, hetero.Nulls},
		Courses:    courses,
		RenderHTML: renderToronto,
		Wrapper:    torontoWrapper,
	})
}

func renderToronto(s *Source) string {
	var b strings.Builder
	b.WriteString(`<html><head><title>U of T CS Courses</title></head><body>
<h2>University of Toronto &mdash; Department of Computer Science</h2>
<ul>
`)
	for i := range s.Courses {
		c := &s.Courses[i]
		fmt.Fprintf(&b, `<li class="course"><span class="code">%s</span> <span class="title">%s</span>, taught by <span class="who">%s</span>, %s %s&ndash;%s in %s.`,
			c.Number, xmlEscape(c.Title), xmlEscape(c.Instructors[0].Name),
			c.Days, Clock12(c.Start), Clock12(c.End), xmlEscape(c.Room))
		if c.Textbook != "" {
			fmt.Fprintf(&b, ` Text: <span class="book">%s</span>`, xmlEscape(c.Textbook))
		}
		b.WriteString("</li>\n")
	}
	b.WriteString("</ul></body></html>\n")
	return b.String()
}

func torontoWrapper() *tess.Config {
	return &tess.Config{
		Source: "toronto",
		Rules: []*tess.Rule{{
			Name:   "course",
			Begin:  `<li class="course">`,
			End:    `</li>`,
			Repeat: true,
			Rules: []*tess.Rule{
				{Name: "code", Begin: `<span class="code">`, End: `</span>`},
				{Name: "title", Begin: `<span class="title">`, End: `</span>`},
				{Name: "instructor", Begin: `<span class="who">`, End: `</span>`},
				{Name: "when", Begin: `,`, End: ` in `},
				{Name: "where", Begin: ``, End: `\.`},
				// The textbook element is simply absent when no book is
				// assigned (case 6).
				{Name: "text", Begin: `<span class="book">`, End: `</span>`, Optional: true},
			},
		}},
	}
}
