package catalog

import "strconv"

// This file holds the deterministic course pool that fills each source's
// catalog beyond the paper's verbatim sample courses. Every university draws
// a different slice of the pool (offset by a stable per-school index), so
// catalogs overlap — as real course catalogs do — without being identical.

// poolCourse is a neutral course description that renderers project into a
// university's local conventions.
type poolCourse struct {
	Num      int // numeric stem; schools format their own course numbers
	Title    string
	German   string // German title for German-language sources
	Surname  string // instructor surname
	Days     string
	Start    int // minutes since midnight
	End      int
	Room     string
	Credits  int
	Prereq   string
	Textbook string
	Desc     string
}

// coursePool is the shared deterministic pool. Titles deliberately include
// several "Database", "Data Structures", "Software", "Networks" and
// "Verification" courses so that every benchmark query has plausible
// matches and near-misses in most catalogs.
var coursePool = []poolCourse{
	{101, "Introduction to Programming", "Einführung in die Programmierung", "Rivera", "MWF", 9 * 60, 9*60 + 50, "HALL 101", 3, "", "Programming Fundamentals, 2nd ed.", "Variables, control flow, functions, and basic data types."},
	{161, "Discrete Mathematics", "Diskrete Mathematik", "Okafor", "TTh", 10 * 60, 11*60 + 15, "MATH 220", 3, "None", "Discrete Mathematics and Its Applications", "Logic, sets, relations, combinatorics, and graphs."},
	{220, "Data Structures", "Datenstrukturen", "Mount", "MWF", 10 * 60, 10*60 + 50, "CSI 2117", 3, "Introduction to Programming", "Algorithms in C++", "Lists, trees, hashing, and balanced search structures."},
	{231, "Computer Organization", "Rechnerorganisation", "Petrov", "TTh", 13 * 60, 14*60 + 15, "ENG 143", 4, "Data Structures", "Computer Organization and Design", "Instruction sets, pipelining, memory hierarchy."},
	{240, "Algorithms", "Algorithmen", "Vazirani", "MWF", 11 * 60, 11*60 + 50, "HALL 210", 3, "Data Structures", "Introduction to Algorithms", "Design and analysis of efficient algorithms."},
	{301, "Operating Systems", "Betriebssysteme", "Hollingsworth", "MWF", 10 * 60, 10*60 + 50, "KEY 0106", 3, "Computer Organization", "Operating System Concepts", "Processes, scheduling, virtual memory, and file systems."},
	{310, "Database Design", "Datenbankentwurf", "Ramakrishnan", "TTh", 13*60 + 30, 14*60 + 45, "CSB 209", 3, "Data Structures", "Database Management Systems", "ER modeling, relational design, normalization, SQL."},
	{315, "Database Systems", "Datenbanksysteme", "DeWitt", "MW", 13*60 + 30, 14*60 + 50, "CS 1240", 4, "Data Structures", "Database System Concepts", "Storage, indexing, query processing, transactions."},
	{330, "Computer Networks", "Rechnernetze", "Zhang", "TTh", 10*60 + 30, 11*60 + 50, "WEH 5403", 4, "Operating Systems", "Computer Networking: A Top-Down Approach", "Protocol layering, routing, congestion control."},
	{336, "Software Engineering", "Software-Engineering", "Memon", "MW", 14 * 60, 15*60 + 15, "EGR 2154", 3, "Data Structures", "Software Engineering (Sommerville)", "Requirements, design, testing, and team projects."},
	{341, "Programming Languages", "Programmiersprachen", "Pierce", "MWF", 13 * 60, 13*60 + 50, "HALL 305", 3, "Algorithms", "Types and Programming Languages", "Semantics, type systems, functional programming."},
	{345, "Compilers", "Übersetzerbau", "Aho", "TTh", 9 * 60, 10*60 + 15, "ENG 021", 4, "Programming Languages", "Compilers: Principles, Techniques, and Tools", "Lexing, parsing, code generation, optimization."},
	{350, "Artificial Intelligence", "Künstliche Intelligenz", "Norvig", "MWF", 14 * 60, 14*60 + 50, "HALL 120", 3, "Algorithms", "Artificial Intelligence: A Modern Approach", "Search, knowledge representation, planning, learning."},
	{361, "Machine Learning", "Maschinelles Lernen", "Mitchell", "TTh", 15 * 60, 16*60 + 15, "GHC 4401", 4, "Artificial Intelligence", "Machine Learning (Mitchell)", "Supervised and unsupervised learning, neural networks."},
	{372, "Computer Graphics", "Computergraphik", "Foley", "MW", 11 * 60, 12*60 + 15, "ART 133", 3, "Algorithms", "Computer Graphics: Principles and Practice", "Rasterization, transformations, shading, modeling."},
	{381, "Theory of Computation", "Theoretische Informatik", "Sipser", "MWF", 9 * 60, 9*60 + 50, "MATH 410", 3, "Discrete Mathematics", "Introduction to the Theory of Computation", "Automata, computability, and complexity."},
	{410, "Automated Verification", "Automatische Verifikation", "Clarke", "TTh", 11 * 60, 12*60 + 15, "WEH 4623", 3, "Theory of Computation", "'Model Checking', by Clarke, Grumberg, Peled, 1999, MIT Press.", "Temporal logic, model checking, and verification tools."},
	{415, "Database System Implementation", "Implementierung von Datenbanksystemen", "Ailamaki", "MW", 13*60 + 30, 14*60 + 50, "WEH 5310", 4, "Database Design", "", "Buffer management, join algorithms, recovery, concurrency."},
	{420, "Distributed Systems", "Verteilte Systeme", "Lamport", "TTh", 14 * 60, 15*60 + 15, "GHC 4303", 4, "Operating Systems", "Distributed Systems: Principles and Paradigms", "Consistency, replication, consensus, fault tolerance."},
	{430, "Information Retrieval", "Information Retrieval", "Salton", "MWF", 10 * 60, 10*60 + 50, "LIB 204", 3, "Data Structures", "Introduction to Information Retrieval", "Indexing, ranking, evaluation of search systems."},
	{445, "Computer Security", "Computersicherheit", "Song", "MW", 15 * 60, 16*60 + 20, "PHY 333", 4, "Operating Systems", "Security Engineering", "Cryptography, protocols, systems security."},
	{460, "Human-Computer Interaction", "Mensch-Maschine-Interaktion", "Shneiderman", "TTh", 9*60 + 30, 10*60 + 45, "HCI 110", 3, "", "Designing the User Interface", "Interface design, evaluation, usability studies."},
	{472, "Computational Biology", "Bioinformatik", "Karp", "MWF", 12 * 60, 12*60 + 50, "BIO 140", 3, "Algorithms", "Biological Sequence Analysis", "Sequence alignment, phylogeny, genomics algorithms."},
	{481, "Parallel Computing", "Paralleles Rechnen", "Kuck", "TTh", 16 * 60, 17*60 + 15, "ENG 325", 4, "Computer Organization", "Introduction to Parallel Computing", "Shared memory, message passing, parallel algorithms."},
}

// frenchTitles maps the pool's English titles to their French renderings,
// used by the French-language source (EPFL).
var frenchTitles = map[string]string{
	"Introduction to Programming":    "Introduction à la programmation",
	"Discrete Mathematics":           "Mathématiques discrètes",
	"Data Structures":                "Structures de données",
	"Computer Organization":          "Architecture des ordinateurs",
	"Algorithms":                     "Algorithmique",
	"Operating Systems":              "Systèmes d'exploitation",
	"Database Design":                "Conception de bases de données",
	"Database Systems":               "Systèmes de bases de données",
	"Computer Networks":              "Réseaux informatiques",
	"Software Engineering":           "Génie logiciel",
	"Programming Languages":          "Langages de programmation",
	"Compilers":                      "Compilation",
	"Artificial Intelligence":        "Intelligence artificielle",
	"Machine Learning":               "Apprentissage automatique",
	"Computer Graphics":              "Infographie",
	"Theory of Computation":          "Théorie du calcul",
	"Automated Verification":         "Vérification automatique",
	"Database System Implementation": "Implémentation de systèmes de bases de données",
	"Distributed Systems":            "Systèmes répartis",
	"Information Retrieval":          "Recherche d'information",
	"Computer Security":              "Sécurité informatique",
	"Human-Computer Interaction":     "Interaction homme-machine",
	"Computational Biology":          "Bioinformatique",
	"Parallel Computing":             "Calcul parallèle",
}

// FrenchTitle returns the French rendering of a pool course title, or the
// English title when no rendering exists.
func FrenchTitle(english string) string {
	if fr, ok := frenchTitles[english]; ok {
		return fr
	}
	return english
}

// poolSlice returns n pool courses starting at a stable offset derived from
// the school key, wrapping around the pool.
func poolSlice(key string, n int) []poolCourse {
	off := 0
	for _, r := range key {
		off = (off*31 + int(r)) % len(coursePool)
	}
	out := make([]poolCourse, 0, n)
	for i := 0; i < n && i < len(coursePool); i++ {
		out = append(out, coursePool[(off+i)%len(coursePool)])
	}
	return out
}

// fillerCourses converts a pool slice into Courses with school-specific
// numbering: prefix + pool number, e.g. "CS" → "CS310".
func fillerCourses(key, prefix string, n int) []Course {
	var out []Course
	for _, p := range poolSlice(key, n) {
		out = append(out, Course{
			Number:      numberFmt(prefix, p.Num),
			Title:       p.Title,
			GermanTitle: p.German,
			Instructors: []Instructor{{Name: p.Surname, Home: "http://www." + key + ".edu/~" + lower(p.Surname)}},
			Days:        p.Days,
			Start:       p.Start,
			End:         p.End,
			Room:        p.Room,
			Credits:     p.Credits,
			Prereq:      p.Prereq,
			Textbook:    p.Textbook,
			Description: p.Desc,
		})
	}
	return out
}

func numberFmt(prefix string, num int) string {
	return prefix + strconv.Itoa(num)
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}
