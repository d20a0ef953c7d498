package catalog

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/hetero"
	"thalia/internal/tess"
)

// ETH Zürich (Swiss Federal Institute of Technology): the German-language
// source. Element names and values are German (case 5), workload is the
// Swiss "Umfang" notation like "2V1U" — two lecture and one exercise hours —
// rather than credit hours (case 4), and there is no concept of US student
// classification; the closest thing is a recommended semester embedded in
// the title (case 8).
func init() {
	courses := []Course{
		{
			Number:      "251-0317",
			Title:       "XML und Datenbanken",
			GermanTitle: "XML und Datenbanken",
			Instructors: []Instructor{{Name: "Gross"}},
			Days:        "Mi",
			Start:       10 * 60,
			End:         12 * 60,
			Room:        "IFW A36",
			UnitsNote:   "2V1U",
		},
		{
			Number:      "251-0062",
			Title:       "Vernetzte Systeme (3. Semester)",
			GermanTitle: "Vernetzte Systeme (3. Semester)",
			Instructors: []Instructor{{Name: "Plattner"}},
			Days:        "Do",
			Start:       13*60 + 15,
			End:         16 * 60,
			Room:        "ETF E1",
			UnitsNote:   "3V1U",
		},
		{
			Number:      "251-0316",
			Title:       "Datenbanksysteme",
			GermanTitle: "Datenbanksysteme",
			Instructors: []Instructor{{Name: "Norrie"}},
			Days:        "Di",
			Start:       8 * 60,
			End:         10 * 60,
			Room:        "HG F1",
			UnitsNote:   "4V2U",
		},
	}
	for i, p := range poolSlice("eth", 10) {
		courses = append(courses, Course{
			Number:      fmt.Sprintf("251-%04d", 100+p.Num),
			Title:       p.German,
			GermanTitle: p.German,
			Instructors: []Instructor{{Name: p.Surname}},
			Days:        []string{"Mo", "Di", "Mi", "Do", "Fr"}[i%5],
			Start:       p.Start,
			End:         p.End,
			Room:        "HG E" + strconv.Itoa(3+i),
			UnitsNote:   fmt.Sprintf("%dV%dU", 1+p.Credits/2, p.Credits%2+1),
		})
	}

	register(&Source{
		Name:       "eth",
		University: "Swiss Federal Institute of Technology Zürich (ETH)",
		Country:    "Switzerland",
		Style:      `German element names and values (Vorlesung/Titel/Dozent); workload as "Umfang" notation (2V1U); recommended semester in the title instead of US classifications; 24-hour clock`,
		Exhibits: []hetero.Case{
			hetero.ComplexMappings, hetero.LanguageExpression, hetero.SemanticIncompatibility,
		},
		Courses:    courses,
		RenderHTML: renderETH,
		Wrapper:    ethWrapper,
	})
}

func renderETH(s *Source) string {
	var b strings.Builder
	b.WriteString(`<html><head><title>ETH Z&uuml;rich &mdash; Vorlesungsverzeichnis Informatik</title></head><body>
<h2>Vorlesungsverzeichnis Departement Informatik</h2>
<table>
<tr><th>Nummer</th><th>Titel</th><th>Dozent</th><th>Umfang</th><th>Zeit</th><th>Ort</th></tr>
`)
	for i := range s.Courses {
		c := &s.Courses[i]
		fmt.Fprintf(&b, `<tr class="vorlesung"><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s %s-%s</td><td>%s</td></tr>
`, c.Number, xmlEscape(c.GermanTitle), xmlEscape(c.Instructors[0].Name), c.UnitsNote,
			c.Days, Clock24(c.Start), Clock24(c.End), xmlEscape(c.Room))
	}
	b.WriteString("</table></body></html>\n")
	return b.String()
}

func ethWrapper() *tess.Config {
	return &tess.Config{
		Source: "eth",
		Rules: []*tess.Rule{{
			Name:   "Vorlesung",
			Begin:  `<tr class="vorlesung">`,
			End:    `</tr>`,
			Repeat: true,
			Rules: []*tess.Rule{
				{Name: "Nummer", Begin: `<td>`, End: `</td>`},
				{Name: "Titel", Begin: `<td>`, End: `</td>`},
				{Name: "Dozent", Begin: `<td>`, End: `</td>`},
				{Name: "Umfang", Begin: `<td>`, End: `</td>`},
				{Name: "Zeit", Begin: `<td>`, End: `</td>`},
				{Name: "Ort", Begin: `<td>`, End: `</td>`},
			},
		}},
	}
}
