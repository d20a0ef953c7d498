package catalog

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/hetero"
	"thalia/internal/tess"
)

// University of California, San Diego: the challenge schema for case 11.
// Its catalog lays instructors out under *term* columns — "Fall 2003",
// "Winter 2004" — so the attribute names say nothing about the values
// stored in them (they hold instructor names).
func init() {
	courses := []Course{
		{
			Number:      "CSE232",
			Title:       "Database System Implementation",
			Instructors: []Instructor{{Name: "Yannis"}, {Name: "Deutsch"}},
			Days:        "TTh",
			Start:       14 * 60,
			End:         15*60 + 20,
			Room:        "EBU3B 2154",
			Credits:     4,
		},
		{
			Number:      "CSE132A",
			Title:       "Database System Principles",
			Instructors: []Instructor{{Name: "Vianu"}, {Name: "Staff"}},
			Days:        "MWF",
			Start:       11 * 60,
			End:         11*60 + 50,
			Room:        "CENTR 119",
			Credits:     4,
		},
	}
	for i, p := range poolSlice("ucsd", 11) {
		second := "Staff"
		if i%2 == 0 {
			second = "(not offered)"
		}
		courses = append(courses, Course{
			Number:      fmt.Sprintf("CSE%d", p.Num),
			Title:       p.Title,
			Instructors: []Instructor{{Name: p.Surname}, {Name: second}},
			Days:        p.Days,
			Start:       p.Start,
			End:         p.End,
			Room:        "EBU3B " + strconv.Itoa(1000+i*101),
			Credits:     p.Credits,
		})
	}

	register(&Source{
		Name:       "ucsd",
		University: "University of California, San Diego",
		Country:    "USA",
		Style:      `term columns ("Fall 2003", "Winter 2004") holding instructor names — attribute names do not define semantics`,
		Exhibits:   []hetero.Case{hetero.AttributeNameDoesNotDefineSemantics},
		Courses:    courses,
		RenderHTML: renderUCSD,
		Wrapper:    ucsdWrapper,
	})
}

// ucsdTerm returns the instructor listed under the i-th term column.
func ucsdTerm(c *Course, i int) string {
	if i < len(c.Instructors) {
		return c.Instructors[i].Name
	}
	return "Staff"
}

func renderUCSD(s *Source) string {
	var b strings.Builder
	b.WriteString(`<html><head><title>UCSD CSE Course Offerings</title></head><body>
<h2>UC San Diego &mdash; CSE Course Offerings by Term</h2>
<table>
<tr><th>Course</th><th>Title</th><th>Fall 2003</th><th>Winter 2004</th><th>Time</th><th>Room</th></tr>
`)
	for i := range s.Courses {
		c := &s.Courses[i]
		fmt.Fprintf(&b, `<tr class="course"><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s %s-%s</td><td>%s</td></tr>
`, c.Number, xmlEscape(c.Title), xmlEscape(ucsdTerm(c, 0)), xmlEscape(ucsdTerm(c, 1)),
			c.Days, Clock12(c.Start), Clock12(c.End), xmlEscape(c.Room))
	}
	b.WriteString("</table></body></html>\n")
	return b.String()
}

func ucsdWrapper() *tess.Config {
	return &tess.Config{
		Source: "ucsd",
		Rules: []*tess.Rule{{
			Name:   "Course",
			Begin:  `<tr class="course">`,
			End:    `</tr>`,
			Repeat: true,
			Rules: []*tess.Rule{
				{Name: "Number", Begin: `<td>`, End: `</td>`},
				{Name: "Title", Begin: `<td>`, End: `</td>`},
				// The column titles become the element names, as the
				// testbed's wrappers always do — hence "Fall2003" holding an
				// instructor name (case 11).
				{Name: "Fall2003", Begin: `<td>`, End: `</td>`},
				{Name: "Winter2004", Begin: `<td>`, End: `</td>`},
				{Name: "Time", Begin: `<td>`, End: `</td>`},
				{Name: "Room", Begin: `<td>`, End: `</td>`},
			},
		}},
	}
}
