package mapping

import (
	"sort"
	"strings"
)

// Lexicon is a bidirectional German↔English dictionary for the
// language-expression heterogeneity (case 5). It covers both schema terms
// (element names like "Titel") and domain vocabulary appearing in values
// (like "Datenbank"). Real systems would plug in a full dictionary; the
// paper notes that without one this heterogeneity needs "large amounts of
// custom code".
type Lexicon struct {
	deToEn map[string]string
	enToDe map[string][]string
}

// NewGermanLexicon returns the lexicon covering the testbed's German
// sources (ETH Zürich, TU München, Universität Karlsruhe).
func NewGermanLexicon() *Lexicon {
	l := &Lexicon{deToEn: map[string]string{}, enToDe: map[string][]string{}}
	// Schema terms.
	for de, en := range map[string]string{
		"Vorlesung":     "Course",
		"Veranstaltung": "Course",
		"Titel":         "Title",
		"Dozent":        "Lecturer",
		"Nummer":        "Number",
		"Umfang":        "Units",
		"SWS":           "CreditHours",
		"Zeit":          "Time",
		"Ort":           "Room",
		"Raum":          "Room",
		"Semester":      "Semester",
	} {
		l.add(de, en)
	}
	// Domain vocabulary seen in the testbed's course titles.
	for de, en := range map[string]string{
		"Datenbank":        "database",
		"Datenbanken":      "databases",
		"Datenbanksystem":  "database system",
		"Datenbanksysteme": "database systems",
		"Datenstrukturen":  "data structures",
		"Algorithmen":      "algorithms",
		"Betriebssysteme":  "operating systems",
		"Rechnernetze":     "computer networks",
		"Vernetzte":        "networked",
		"Systeme":          "systems",
		"Programmierung":   "programming",
		"Einführung":       "introduction",
		"Übersetzerbau":    "compilers",
		"Verifikation":     "verification",
		"Informatik":       "computer science",
	} {
		l.add(de, en)
	}
	return l
}

func (l *Lexicon) add(de, en string) {
	l.deToEn[strings.ToLower(de)] = en
	key := strings.ToLower(en)
	l.enToDe[key] = append(l.enToDe[key], de)
	sort.Strings(l.enToDe[key])
}

// ToEnglish translates a German term; ok is false for unknown terms.
func (l *Lexicon) ToEnglish(de string) (string, bool) {
	en, ok := l.deToEn[strings.ToLower(de)]
	return en, ok
}

// ToGerman returns all German renderings of an English term. The paper's
// query 5 needs exactly this: 'Database' expands to 'Datenbank' and
// 'Datenbanksystem' before matching against ETH's catalog.
func (l *Lexicon) ToGerman(en string) []string {
	key := strings.ToLower(en)
	seen := map[string]bool{}
	var out []string
	for _, de := range l.enToDe[key] {
		if !seen[de] {
			seen[de] = true
			out = append(out, de)
		}
	}
	// An English stem also expands through compounds: "database" matches
	// the stem of "databases", "database system", ...
	for k, des := range l.enToDe {
		if k == key || !strings.HasPrefix(k, key) {
			continue
		}
		for _, de := range des {
			if !seen[de] {
				seen[de] = true
				out = append(out, de)
			}
		}
	}
	sort.Strings(out)
	return out
}

// ValueContains reports whether a German value contains (a German rendering
// of) the English term, case-insensitively.
func (l *Lexicon) ValueContains(germanValue, englishTerm string) bool {
	lv := strings.ToLower(germanValue)
	if strings.Contains(lv, strings.ToLower(englishTerm)) {
		// Loanwords ("Information Retrieval") appear untranslated.
		return true
	}
	for _, de := range l.ToGerman(englishTerm) {
		if strings.Contains(lv, strings.ToLower(de)) {
			return true
		}
	}
	return false
}

// TranslateTag maps a German element name to its English counterpart,
// returning the input unchanged when unknown.
func (l *Lexicon) TranslateTag(tag string) string {
	if en, ok := l.ToEnglish(tag); ok {
		return en
	}
	return tag
}

// NewFrenchLexicon returns the lexicon covering the testbed's French
// source (EPFL): schema terms and the domain vocabulary appearing in
// course titles. Together with the German lexicon it demonstrates that the
// language-expression heterogeneity (case 5) is a per-language dictionary
// problem, not a one-off.
func NewFrenchLexicon() *Lexicon {
	l := &Lexicon{deToEn: map[string]string{}, enToDe: map[string][]string{}}
	// Schema terms.
	for fr, en := range map[string]string{
		"Matière":    "Course",
		"Cours":      "Course",
		"Intitulé":   "Title",
		"Titre":      "Title",
		"Enseignant": "Lecturer",
		"Professeur": "Lecturer",
		"Horaire":    "Time",
		"Salle":      "Room",
		"Crédits":    "Credits",
		"Numéro":     "Number",
	} {
		l.add(fr, en)
	}
	// Domain vocabulary.
	for fr, en := range map[string]string{
		"Bases de données":          "databases",
		"Base de données":           "database",
		"Structures de données":     "data structures",
		"Algorithmique":             "algorithms",
		"Systèmes d'exploitation":   "operating systems",
		"Réseaux informatiques":     "computer networks",
		"Génie logiciel":            "software engineering",
		"Compilation":               "compilers",
		"Intelligence artificielle": "artificial intelligence",
		"Apprentissage automatique": "machine learning",
		"Sécurité informatique":     "computer security",
		"Calcul parallèle":          "parallel computing",
		"Vérification":              "verification",
		"Informatique":              "computer science",
		"Programmation":             "programming",
	} {
		l.add(fr, en)
	}
	return l
}
