package catalog

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/hetero"
	"thalia/internal/tess"
)

// This file defines the remaining sources of the 25-school testbed through
// parameterized style families. Each school still gets its own element
// vocabulary (the synonym heterogeneity is pervasive in the real testbed),
// its own clock convention, and its own page layout; only the rendering
// machinery is shared.

// tableStyle renders a one-row-per-course table with school-specific column
// names; the wrapper turns the column titles into element names.
type tableStyle struct {
	rowClass string
	// fields maps column order to (header, element name, value function).
	fields []tableField
}

type tableField struct {
	header string
	elem   string
	value  func(c *Course) string
}

func makeTableSource(name, university, country, heading, prefix string, n int, clock func(int) string, vocab [5]string, exhibits ...hetero.Case) {
	// vocab: element names for number, title, instructor, time, room.
	style := &tableStyle{
		rowClass: "row",
		fields: []tableField{
			{vocab[0], vocab[0], func(c *Course) string { return c.Number }},
			{vocab[1], vocab[1], func(c *Course) string { return c.Title }},
			{vocab[2], vocab[2], func(c *Course) string { return c.Instructors[0].Name }},
			{vocab[3], vocab[3], func(c *Course) string { return c.Days + " " + clock(c.Start) + "-" + clock(c.End) }},
			{vocab[4], vocab[4], func(c *Course) string { return c.Room }},
		},
	}
	register(&Source{
		Name:       name,
		University: university,
		Country:    country,
		Style:      "tabular; vocabulary " + strings.Join(vocab[:], "/"),
		Exhibits:   append([]hetero.Case{hetero.Synonyms}, exhibits...),
		Courses:    fillerCourses(name, prefix, n),
		RenderHTML: func(s *Source) string { return renderTable(s, heading, style) },
		Wrapper:    func() *tess.Config { return tableWrapper(name, style) },
	})
}

func renderTable(s *Source, heading string, style *tableStyle) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<html><head><title>%s</title></head><body>
<h2>%s</h2>
<table>
<tr>`, heading, heading)
	for _, f := range style.fields {
		fmt.Fprintf(&b, "<th>%s</th>", f.header)
	}
	b.WriteString("</tr>\n")
	for i := range s.Courses {
		c := &s.Courses[i]
		fmt.Fprintf(&b, `<tr class="%s">`, style.rowClass)
		for _, f := range style.fields {
			fmt.Fprintf(&b, "<td>%s</td>", xmlEscape(f.value(c)))
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table></body></html>\n")
	return b.String()
}

func tableWrapper(source string, style *tableStyle) *tess.Config {
	row := &tess.Rule{
		Name:   "Course",
		Begin:  fmt.Sprintf(`<tr class="%s">`, style.rowClass),
		End:    `</tr>`,
		Repeat: true,
	}
	for _, f := range style.fields {
		row.Rules = append(row.Rules, &tess.Rule{Name: f.elem, Begin: `<td>`, End: `</td>`})
	}
	return &tess.Config{Source: source, Rules: []*tess.Rule{row}}
}

// makeListSource renders a definition-list catalog (dt/dd pairs).
func makeListSource(name, university, country, heading, prefix string, n int, clock func(int) string, vocab [5]string) {
	register(&Source{
		Name:       name,
		University: university,
		Country:    country,
		Style:      "definition list; vocabulary " + strings.Join(vocab[:], "/"),
		Exhibits:   []hetero.Case{hetero.Synonyms},
		Courses:    fillerCourses(name, prefix, n),
		RenderHTML: func(s *Source) string {
			var b strings.Builder
			fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n<h2>%s</h2>\n<dl>\n", heading, heading)
			for i := range s.Courses {
				c := &s.Courses[i]
				fmt.Fprintf(&b, `<dt class="entry"><b>%s</b> &mdash; %s</dt>
<dd>Led by <i>%s</i>; meets <u>%s %s-%s</u>; location <tt>%s</tt>.</dd>
`, c.Number, xmlEscape(c.Title), xmlEscape(c.Instructors[0].Name),
					c.Days, clock(c.Start), clock(c.End), xmlEscape(c.Room))
			}
			b.WriteString("</dl></body></html>\n")
			return b.String()
		},
		Wrapper: func() *tess.Config {
			return &tess.Config{
				Source: name,
				Rules: []*tess.Rule{{
					Name:   "Course",
					Begin:  `<dt class="entry">`,
					End:    `</dd>`,
					Repeat: true,
					Rules: []*tess.Rule{
						{Name: vocab[0], Begin: `<b>`, End: `</b>`},
						{Name: vocab[1], Begin: `&mdash; `, End: `</dt>`},
						{Name: vocab[2], Begin: `<i>`, End: `</i>`},
						{Name: vocab[3], Begin: `<u>`, End: `</u>`},
						{Name: vocab[4], Begin: `<tt>`, End: `</tt>`},
					},
				}},
			}
		},
	})
}

// makeSectionedSource renders a UMD-like nested-sections catalog, adding
// more exhibits of the structural heterogeneities.
func makeSectionedSource(name, university, country, heading, prefix string, n int) {
	courses := fillerCourses(name, prefix, n)
	for i := range courses {
		c := &courses[i]
		c.Sections = []Section{{
			Num: "001", ID: strconv.Itoa(9000 + i*7), Teacher: c.Instructors[0].Name,
			Days: c.Days, Time: Clock12(c.Start), Room: strings.ReplaceAll(c.Room, " ", ""),
		}}
		if i%2 == 0 {
			c.Sections = append(c.Sections, Section{
				Num: "002", ID: strconv.Itoa(9001 + i*7), Teacher: "Staff",
				Days: "F", Time: Clock12(c.Start + 60), Room: strings.ReplaceAll(c.Room, " ", ""),
			})
		}
	}
	register(&Source{
		Name:       name,
		University: university,
		Country:    country,
		Style:      "nested section tables; per-section instructors, rooms and times",
		Exhibits:   []hetero.Case{hetero.SameAttributeDifferentStructure, hetero.HandlingSets},
		Courses:    courses,
		RenderHTML: func(s *Source) string {
			var b strings.Builder
			fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n<h2>%s</h2>\n", heading, heading)
			for i := range s.Courses {
				c := &s.Courses[i]
				fmt.Fprintf(&b, `<div class="offering"><h3>%s %s</h3>
<table class="meet">
`, c.Number, xmlEscape(c.Title))
				for _, sec := range c.Sections {
					fmt.Fprintf(&b, `<tr class="m"><td>%s</td><td>%s</td><td>%s %s</td><td>%s</td></tr>
`, sec.Num, xmlEscape(sec.Teacher), sec.Days, sec.Time, sec.Room)
				}
				b.WriteString("</table></div>\n")
			}
			b.WriteString("</body></html>\n")
			return b.String()
		},
		Wrapper: func() *tess.Config {
			return &tess.Config{
				Source: name,
				Rules: []*tess.Rule{{
					Name:   "Offering",
					Begin:  `<div class="offering">`,
					End:    `</div>`,
					Repeat: true,
					Rules: []*tess.Rule{
						{Name: "Code", Begin: `<h3>`, End: ` `},
						{Name: "Name", Begin: ``, End: `</h3>`},
						{
							Name: "Meeting", Begin: `<tr class="m">`, End: `</tr>`, Repeat: true,
							Rules: []*tess.Rule{
								{Name: "Sec", Begin: `<td>`, End: `</td>`},
								{Name: "Leader", Begin: `<td>`, End: `</td>`},
								{Name: "When", Begin: `<td>`, End: `</td>`},
								{Name: "Where", Begin: `<td>`, End: `</td>`},
							},
						},
					},
				}},
			}
		},
	})
}

// makeFrenchSource renders a French-language catalog: French element names
// and French course titles — a second instance of the language-expression
// heterogeneity (case 5) beyond the paper's German examples.
func makeFrenchSource(name, university, heading, prefix string, n int) {
	courses := fillerCourses(name, prefix, n)
	register(&Source{
		Name:       name,
		University: university,
		Country:    "Switzerland",
		Style:      "French element names and values (Matière/Intitulé/Enseignant); 24-hour clock",
		Exhibits:   []hetero.Case{hetero.LanguageExpression},
		Courses:    courses,
		RenderHTML: func(s *Source) string {
			var b strings.Builder
			fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n<h2>%s</h2>\n<dl>\n", heading, heading)
			for i := range s.Courses {
				c := &s.Courses[i]
				fmt.Fprintf(&b, `<dt class="matiere"><b>%s</b> &mdash; %s</dt>
<dd>Enseignant&nbsp;: <i>%s</i>. Horaire&nbsp;: <u>%s %s-%s</u>. Salle&nbsp;: <tt>%s</tt>.</dd>
`, c.Number, xmlEscape(FrenchTitle(c.Title)), xmlEscape("Prof. "+c.Instructors[0].Name),
					c.Days, Clock24(c.Start), Clock24(c.End), xmlEscape(c.Room))
			}
			b.WriteString("</dl></body></html>\n")
			return b.String()
		},
		Wrapper: func() *tess.Config {
			return &tess.Config{
				Source: name,
				Rules: []*tess.Rule{{
					Name:   "Matière",
					Begin:  `<dt class="matiere">`,
					End:    `</dd>`,
					Repeat: true,
					Rules: []*tess.Rule{
						{Name: "Numéro", Begin: `<b>`, End: `</b>`},
						{Name: "Intitulé", Begin: `&mdash; `, End: `</dt>`},
						{Name: "Enseignant", Begin: `<i>`, End: `</i>`},
						{Name: "Horaire", Begin: `<u>`, End: `</u>`},
						{Name: "Salle", Begin: `<tt>`, End: `</tt>`},
					},
				}},
			}
		},
	})
}

// makeGermanSource renders a German-language catalog (case 5), with German
// element names, values, day abbreviations, and a 24-hour clock.
func makeGermanSource(name, university, heading, prefix string, n int) {
	courses := fillerCourses(name, prefix, n)
	germanDays := map[string]string{"MWF": "Mo/Mi/Fr", "TTh": "Di/Do", "MW": "Mo/Mi", "M": "Mo", "F": "Fr"}
	register(&Source{
		Name:       name,
		University: university,
		Country:    "Germany",
		Style:      "German element names and values; 24-hour clock; workload in Semesterwochenstunden",
		Exhibits:   []hetero.Case{hetero.LanguageExpression, hetero.ComplexMappings},
		Courses:    courses,
		RenderHTML: func(s *Source) string {
			var b strings.Builder
			fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n<h2>%s</h2>\n<table>\n<tr><th>Nr.</th><th>Veranstaltung</th><th>Dozent</th><th>SWS</th><th>Zeit</th><th>Raum</th></tr>\n", heading, heading)
			for i := range s.Courses {
				c := &s.Courses[i]
				days := germanDays[c.Days]
				if days == "" {
					days = c.Days
				}
				fmt.Fprintf(&b, `<tr class="kurs"><td>%s</td><td>%s</td><td>Prof. %s</td><td>%d</td><td>%s %s-%s</td><td>%s</td></tr>
`, c.Number, xmlEscape(c.GermanTitle), xmlEscape(c.Instructors[0].Name), c.Credits,
					days, Clock24(c.Start), Clock24(c.End), xmlEscape(c.Room))
			}
			b.WriteString("</table></body></html>\n")
			return b.String()
		},
		Wrapper: func() *tess.Config {
			return &tess.Config{
				Source: name,
				Rules: []*tess.Rule{{
					Name:   "Veranstaltung",
					Begin:  `<tr class="kurs">`,
					End:    `</tr>`,
					Repeat: true,
					Rules: []*tess.Rule{
						{Name: "Nummer", Begin: `<td>`, End: `</td>`},
						{Name: "Titel", Begin: `<td>`, End: `</td>`},
						{Name: "Dozent", Begin: `<td>`, End: `</td>`},
						{Name: "SWS", Begin: `<td>`, End: `</td>`},
						{Name: "Zeit", Begin: `<td>`, End: `</td>`},
						{Name: "Raum", Begin: `<td>`, End: `</td>`},
					},
				}},
			}
		},
	})
}

// makeParagraphSource renders a prose catalog: one paragraph per course.
func makeParagraphSource(name, university, country, heading, prefix string, n int, clock func(int) string) {
	register(&Source{
		Name:       name,
		University: university,
		Country:    country,
		Style:      "prose paragraphs, one per course",
		Exhibits:   []hetero.Case{hetero.Synonyms, hetero.AttributeComposition},
		Courses:    fillerCourses(name, prefix, n),
		RenderHTML: func(s *Source) string {
			var b strings.Builder
			fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>\n<h2>%s</h2>\n", heading, heading)
			for i := range s.Courses {
				c := &s.Courses[i]
				fmt.Fprintf(&b, `<p class="c"><b>%s. %s.</b> %s Offered by %s, %s at %s in %s.</p>
`, c.Number, xmlEscape(c.Title), xmlEscape(c.Description), xmlEscape(c.Instructors[0].Name),
					c.Days, clock(c.Start), xmlEscape(c.Room))
			}
			b.WriteString("</body></html>\n")
			return b.String()
		},
		Wrapper: func() *tess.Config {
			return &tess.Config{
				Source: name,
				Rules: []*tess.Rule{{
					Name:   "Listing",
					Begin:  `<p class="c">`,
					End:    `</p>`,
					Repeat: true,
					Rules: []*tess.Rule{
						{Name: "Id", Begin: `<b>`, End: `\.`},
						{Name: "Heading", Begin: ``, End: `\.</b>`},
						{Name: "Blurb", Begin: ``, End: `Offered by`},
						// Instructor, schedule and room run together in one
						// sentence — attribute composition (case 12).
						{Name: "Details", Begin: ``, End: `\.`},
					},
				}},
			}
		},
	})
}

func init() {
	// Six tabular schools, each with its own vocabulary and clock.
	makeTableSource("mit", "Massachusetts Institute of Technology", "USA",
		"MIT EECS Subject Listing", "6.", 12, Clock12,
		[5]string{"Subject", "SubjectName", "Teacher", "Hours", "Location"})
	makeTableSource("stanford", "Stanford University", "USA",
		"Stanford CS Course Listings", "CS", 12, Clock12,
		[5]string{"CourseID", "CourseTitle", "Faculty", "Schedule", "Venue"})
	makeTableSource("cornell", "Cornell University", "USA",
		"Cornell CS Roster", "CS", 11, Clock12,
		[5]string{"Num", "Name", "Prof", "Meets", "Hall"})
	makeTableSource("princeton", "Princeton University", "USA",
		"Princeton COS Courses", "COS", 10, Clock12,
		[5]string{"Catalog", "Descr", "Lecturer", "Session", "Bldg"})
	makeTableSource("waterloo", "University of Waterloo", "Canada",
		"Waterloo CS Undergraduate Schedule", "CS", 11, Clock24,
		[5]string{"CourseCode", "CourseTitle", "Instr", "TimeSlot", "Room"},
		hetero.SimpleMapping)
	makeTableSource("melbourne", "University of Melbourne", "Australia",
		"Melbourne CIS Subjects", "COMP", 10, Clock24,
		[5]string{"SubjectCode", "SubjectTitle", "Coordinator", "Contact", "Theatre"},
		hetero.SimpleMapping)

	// Four definition-list schools.
	makeListSource("berkeley", "University of California, Berkeley", "USA",
		"UC Berkeley EECS Announcements", "CS", 12, Clock12,
		[5]string{"CCN", "CourseName", "Instructor", "MeetingTime", "Place"})
	makeListSource("washington", "University of Washington", "USA",
		"UW CSE Time Schedule", "CSE", 11, Clock12,
		[5]string{"SLN", "Title", "Staff", "Times", "Where"})
	makeListSource("oxford", "University of Oxford", "UK",
		"Oxford Computing Laboratory Lectures", "CL-", 9, Clock24,
		[5]string{"PaperCode", "PaperTitle", "Reader", "Slot", "LectureHall"})
	makeListSource("cambridge", "University of Cambridge", "UK",
		"Cambridge Computer Laboratory Courses", "CST-", 9, Clock24,
		[5]string{"Unit", "UnitTitle", "Supervisor", "Timetable", "Theatre"})

	// Two nested-section schools (structural heterogeneity beyond UMD).
	makeSectionedSource("wisconsin", "University of Wisconsin-Madison", "USA",
		"UW-Madison CS Timetable", "CS", 10)
	makeSectionedSource("utexas", "University of Texas at Austin", "USA",
		"UT Austin CS Course Schedule", "CS", 10)

	// Two German-language schools (more case-5 sources, as the paper's
	// growing testbed promised).
	makeGermanSource("tum", "Technische Universität München",
		"TU München &mdash; Vorlesungsverzeichnis Informatik", "IN", 10)
	makeGermanSource("karlsruhe", "Universität Karlsruhe (TH)",
		"Universität Karlsruhe &mdash; Lehrveranstaltungen Informatik", "24", 10)

	// Two prose-paragraph schools.
	makeParagraphSource("uiuc", "University of Illinois at Urbana-Champaign", "USA",
		"UIUC CS Course Descriptions", "CS", 11, Clock12)
	makeParagraphSource("purdue", "Purdue University", "USA",
		"Purdue CS Course Bulletin", "CS", 10, Clock12)

	// The paper's testbed was still growing ("expected to reach 45 sources");
	// ten further schools extend it the same way new sources joined the real
	// THALIA site — each with its own vocabulary and conventions.
	makeTableSource("nyu", "New York University", "USA",
		"NYU Courant CS Schedule", "CSCI-", 10, Clock12,
		[5]string{"ClassNbr", "ClassTitle", "Taught_By", "MeetingPattern", "Facility"})
	makeTableSource("columbia", "Columbia University", "USA",
		"Columbia CS Directory of Classes", "COMS W", 10, Clock12,
		[5]string{"CallNumber", "CourseTitle", "Instructor", "DayTime", "Location"})
	makeTableSource("ucla", "University of California, Los Angeles", "USA",
		"UCLA CS Schedule of Classes", "CS", 10, Clock12,
		[5]string{"SRS", "CourseName", "Instr", "Mtg", "Bldg"})
	makeTableSource("caltech", "California Institute of Technology", "USA",
		"Caltech CS Course Offerings", "CS ", 9, Clock12,
		[5]string{"Offering", "OfferingName", "Professor", "Given", "Auditorium"})
	makeTableSource("kth", "KTH Royal Institute of Technology", "Sweden",
		"KTH Datalogi Kurser", "DD", 9, Clock24,
		[5]string{"Kurskod", "Kursnamn", "Examinator", "Schema", "Sal"},
		hetero.SimpleMapping)
	makeTableSource("helsinki", "University of Helsinki", "Finland",
		"Helsinki CS Courses", "581", 9, Clock24,
		[5]string{"CourseKey", "CourseLabel", "Responsible", "Lectures", "Auditorium"},
		hetero.SimpleMapping)
	makeFrenchSource("epfl", "École Polytechnique Fédérale de Lausanne",
		"EPFL Informatique &mdash; Plan d'études", "CS-", 9)
	makeListSource("edinburgh", "University of Edinburgh", "UK",
		"Edinburgh Informatics Course Catalogue", "INFR", 9, Clock24,
		[5]string{"CourseRef", "CourseFullName", "Organiser", "Sessions", "Venue"})
	makeSectionedSource("ubc", "University of British Columbia", "Canada",
		"UBC CS Course Schedule", "CPSC", 9)
	makeParagraphSource("auckland", "University of Auckland", "New Zealand",
		"Auckland CS Course Prescriptions", "COMPSCI", 9, Clock12)
}
