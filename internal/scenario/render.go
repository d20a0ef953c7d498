package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"thalia/internal/catalog"
	"thalia/internal/hetero"
	"thalia/internal/xmldom"
)

// ReferenceDocument renders source i in the benchmark's reference shape:
// <catalog school="sNNNNN"> of <course> records with number, title, one
// <instructor> per instructor, days, 24-hour time range, room, credits,
// prerequisite, textbook (element always present, possibly empty),
// restriction, semester and comment.
func (sc *Scenario) ReferenceDocument(i int) *xmldom.Document {
	cs, _ := sc.gen(i)
	return sc.referenceDocument(i, cs)
}

func (sc *Scenario) referenceDocument(i int, cs []catalog.Course) *xmldom.Document {
	root := xmldom.NewElement("catalog").SetAttr("school", sc.Name(i))
	root.Children = make([]xmldom.Node, 0, len(cs))
	for k := range cs {
		root.Append(refCourse(&cs[k]))
	}
	return xmldom.NewDocument(root)
}

// ChallengeDocument renders source i in its heterogeneity dialect: the
// reference shape transformed by the source's assigned case.
func (sc *Scenario) ChallengeDocument(i int) *xmldom.Document {
	cs, spec := sc.gen(i)
	return sc.challengeDocument(i, cs, spec.Case)
}

func (sc *Scenario) challengeDocument(i int, cs []catalog.Course, cse hetero.Case) *xmldom.Document {
	root := xmldom.NewElement("catalog").SetAttr("school", sc.Name(i))
	root.Children = make([]xmldom.Node, 0, len(cs))
	for k := range cs {
		root.Append(challengeCourse(&cs[k], cse))
	}
	return xmldom.NewDocument(root)
}

// ChallengeXML renders source i's challenge document as an XML string —
// the fuzz targets parse this back to prove generated catalogs are
// well-formed.
func (sc *Scenario) ChallengeXML(i int) string {
	var b strings.Builder
	_ = sc.ChallengeDocument(i).WriteTo(&b, xmldom.WriteOptions{Indent: "  "})
	return b.String()
}

// timeRange24 renders a course's meeting time in the reference spelling.
func timeRange24(c *catalog.Course) string {
	return catalog.Clock24(c.Start) + "-" + catalog.Clock24(c.End)
}

// refFields is the number of single-valued fields in a reference course
// (every field but the instructors).
const refFields = 11

// refCourse builds one reference-shaped course element. The course's
// elements, text nodes and child lists come from three slabs sized up
// front, so a course costs a few allocations instead of several per field.
func refCourse(c *catalog.Course) *xmldom.Element {
	n := refFields + len(c.Instructors)
	els := make([]xmldom.Element, 1+n)
	texts := make([]xmldom.Text, n)
	kids := make([]xmldom.Node, 2*n) // n field text slots, then the course's n children
	e := &els[0]
	e.Name = "course"
	e.Children = kids[n : n : 2*n]
	k := 0
	field := func(name, value string) {
		f := &els[1+k]
		f.Name = name
		if value != "" {
			texts[k].Data = value
			f.Children = kids[k : k : k+1]
			f.Append(&texts[k])
		}
		e.Append(f)
		k++
	}
	field("number", c.Number)
	field("title", c.Title)
	for _, in := range c.Instructors {
		field("instructor", in.Name)
	}
	field("days", c.Days)
	field("time", timeRange24(c))
	field("room", c.Room)
	field("credits", strconv.Itoa(c.Credits))
	field("prerequisite", c.Prereq)
	field("textbook", c.Textbook)
	field("restriction", c.Restrict)
	field("semester", c.Semester)
	field("comment", c.Comment)
	return e
}

func appendField(e *xmldom.Element, name, value string) {
	f := xmldom.NewElement(name)
	if value != "" {
		f.AppendText(value)
	}
	e.Append(f)
}

// challengeCourse transforms a reference-shaped course into the dialect of
// the given heterogeneity case. Each arm realizes exactly one of the
// paper's twelve cases, phrased so internal/hetero.DetectDocs diagnoses
// that case (and only that case) from the rendered pair. The switch is the
// generator's per-class dispatch: every hetero.Case must have an arm here
// (enforced by the scenariocoverage vet analyzer).
func challengeCourse(c *catalog.Course, cse hetero.Case) *xmldom.Element {
	e := refCourse(c)
	switch cse {
	case hetero.Synonyms:
		// Case 1: same attribute, different name.
		renameChildren(e, "instructor", "lecturer")
	case hetero.SimpleMapping:
		// Case 2: same attribute, 12-hour clock spelling.
		setChildText(e, "time", catalog.Clock12(c.Start)+"-"+catalog.Clock12(c.End))
	case hetero.UnionTypes:
		// Case 3: the title gains an attribute (hyperlink), a union type.
		e.Child("title").SetAttr("url", c.TitleURL)
	case hetero.ComplexMappings:
		// Case 4: credits spelled as an ETH-style workload ("2V1U").
		lecture := c.Credits - 1
		if lecture < 1 {
			lecture = 1
		}
		removeChildren(e, "credits")
		appendField(e, "umfang", fmt.Sprintf("%dV%dU", lecture, c.Credits-lecture))
	case hetero.LanguageExpression:
		// Case 5: German schema and German title value.
		e.Name = "Vorlesung"
		renameChildren(e, "number", "Nummer")
		renameChildren(e, "instructor", "Dozent")
		renameChildren(e, "time", "Zeit")
		renameChildren(e, "room", "Raum")
		renameChildren(e, "semester", "Semester")
		t := e.Child("title")
		t.Name = "Titel"
		setText(t, c.GermanTitle)
	case hetero.Nulls:
		// Case 6: a missing textbook drops the element entirely.
		if strings.TrimSpace(c.Textbook) == "" {
			removeChildren(e, "textbook")
		}
	case hetero.VirtualColumns:
		// Case 7: no prerequisite column; the comment carries the info.
		removeChildren(e, "prerequisite")
	case hetero.SemanticIncompatibility:
		// Case 8: student classification does not exist in this world.
		removeChildren(e, "restriction")
	case hetero.SameAttributeDifferentStructure:
		// Case 9: the room moves under a section element.
		removeChildren(e, "room")
		sec := xmldom.NewElement("section")
		appendField(sec, "room", c.Room)
		e.Append(sec)
	case hetero.HandlingSets:
		// Case 10: the instructor set joins into one set-valued attribute.
		removeChildren(e, "instructor")
		names := make([]string, len(c.Instructors))
		for k, in := range c.Instructors {
			names[k] = in.Name
		}
		appendField(e, "instructors", strings.Join(names, "; "))
	case hetero.AttributeNameDoesNotDefineSemantics:
		// Case 11: the semester becomes the column NAME holding the
		// instructor — the value lives in the schema.
		removeChildren(e, "instructor")
		removeChildren(e, "semester")
		appendField(e, strings.ReplaceAll(c.Semester, " ", ""), c.Instructors[0].Name)
	case hetero.AttributeComposition:
		// Case 12: title, days and time compose into one listing value.
		removeChildren(e, "title")
		removeChildren(e, "days")
		removeChildren(e, "time")
		appendField(e, "listing", fmt.Sprintf("%s. %s %s", c.Title, c.Days, timeRange24(c)))
	}
	return e
}

// renameChildren renames every direct child called from to to.
func renameChildren(e *xmldom.Element, from, to string) {
	for _, ch := range e.ChildrenNamed(from) {
		ch.Name = to
	}
}

// removeChildren drops every direct child element called name.
func removeChildren(e *xmldom.Element, name string) {
	out := e.Children[:0]
	for _, n := range e.Children {
		if el, ok := n.(*xmldom.Element); ok && el.Name == name {
			continue
		}
		out = append(out, n)
	}
	e.Children = out
}

// setText replaces an element's content with one text node.
func setText(e *xmldom.Element, s string) {
	e.Children = nil
	if s != "" {
		e.AppendText(s)
	}
}

// setChildText replaces the first child name's content.
func setChildText(e *xmldom.Element, name, s string) {
	if ch := e.Child(name); ch != nil {
		setText(ch, s)
	}
}
