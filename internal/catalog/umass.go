package catalog

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/hetero"
	"thalia/internal/tess"
)

// University of Massachusetts: the challenge schema for the simple-mapping
// query — its meeting times are printed on a 24-hour clock ("16:00-17:15"),
// where CMU uses a bare 12-hour clock ("1:30 - 2:50"). Resolving the two
// requires a mathematical transformation of the values (case 2).
func init() {
	courses := []Course{
		{
			Number:      "CS430",
			Title:       "Database Systems",
			Instructors: []Instructor{{Name: "Immerman"}},
			Days:        "TTh",
			Start:       16 * 60,
			End:         17*60 + 15,
			Room:        "LGRC A301",
			Credits:     3,
		},
		{
			Number:      "CS445",
			Title:       "Database Design and Implementation",
			Instructors: []Instructor{{Name: "Diao"}},
			Days:        "MW",
			Start:       13*60 + 30,
			End:         14*60 + 45,
			Room:        "CMPS 140",
			Credits:     3,
		},
		{
			Number:      "CS377",
			Title:       "Operating Systems",
			Instructors: []Instructor{{Name: "Shenoy"}},
			Days:        "TTh",
			Start:       13 * 60,
			End:         14*60 + 15,
			Room:        "ELAB 323",
			Credits:     4,
		},
	}
	for i, p := range poolSlice("umass", 10) {
		courses = append(courses, Course{
			Number:      fmt.Sprintf("CS%d", 500+p.Num/2),
			Title:       p.Title,
			Instructors: []Instructor{{Name: p.Surname}},
			Days:        p.Days,
			Start:       p.Start,
			End:         p.End,
			Room:        "LGRT " + strconv.Itoa(200+i*13),
			Credits:     p.Credits,
		})
	}

	register(&Source{
		Name:       "umass",
		University: "University of Massachusetts Amherst",
		Country:    "USA",
		Style:      "24-hour clock for meeting times",
		Exhibits:   []hetero.Case{hetero.SimpleMapping},
		Courses:    courses,
		RenderHTML: renderUMass,
		Wrapper:    umassWrapper,
	})
}

func renderUMass(s *Source) string {
	var b strings.Builder
	b.WriteString(`<html><head><title>UMass CS Course Schedule</title></head><body>
<h2>University of Massachusetts Amherst &mdash; Computer Science</h2>
<table>
<tr><th>Number</th><th>Name</th><th>Instructor</th><th>Days</th><th>Time</th><th>Room</th></tr>
`)
	for i := range s.Courses {
		c := &s.Courses[i]
		fmt.Fprintf(&b, `<tr class="course"><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s-%s</td><td>%s</td></tr>
`, c.Number, xmlEscape(c.Title), xmlEscape(c.Instructors[0].Name), c.Days,
			Clock24(c.Start), Clock24(c.End), xmlEscape(c.Room))
	}
	b.WriteString("</table></body></html>\n")
	return b.String()
}

func umassWrapper() *tess.Config {
	return &tess.Config{
		Source: "umass",
		Rules: []*tess.Rule{{
			Name:   "Course",
			Begin:  `<tr class="course">`,
			End:    `</tr>`,
			Repeat: true,
			Rules: []*tess.Rule{
				{Name: "Number", Begin: `<td>`, End: `</td>`},
				{Name: "Name", Begin: `<td>`, End: `</td>`},
				{Name: "Instructor", Begin: `<td>`, End: `</td>`},
				{Name: "Days", Begin: `<td>`, End: `</td>`},
				{Name: "Time", Begin: `<td>`, End: `</td>`},
				{Name: "Room", Begin: `<td>`, End: `</td>`},
			},
		}},
	}
}
