package core

import (
	"context"
	"testing"
)

func TestParseQualifiedTerm(t *testing.T) {
	cases := []struct {
		in         string
		qual, bare string
		ok         bool
	}{
		{"author:levy", "author", "levy", true},
		{"plain", "", "plain", false},
		{":levy", "", ":levy", false},
		{"author:", "", "author:", false},
		{"a:b:c", "a", "b:c", true},
	}
	for _, c := range cases {
		q, bare, ok := ParseQualifiedTerm(c.in)
		if q != c.qual || bare != c.bare || ok != c.ok {
			t.Errorf("ParseQualifiedTerm(%q) = %q, %q, %v", c.in, q, bare, ok)
		}
	}
}

func TestSearchQualifiedByRelation(t *testing.T) {
	f := newBibFixture(t)
	// "mohan" matches only authors anyway, but "paper:aries" restricts the
	// aries matches to the Paper relation (writes tuples contain the token
	// in their FK text too, if ids collide; here it filters cleanly).
	answers, _, err := f.s.Query(context.Background(), Request{Terms: []string{"paper:aries"}, Qualified: true, DB: f.db}, defaultBibOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d, want the 2 ARIES papers", len(answers))
	}
	for _, a := range answers {
		if f.g.TableNameOf(a.Root) != "Paper" {
			t.Errorf("answer in %s", f.g.TableNameOf(a.Root))
		}
	}
}

func TestSearchQualifiedByAttribute(t *testing.T) {
	f := newBibFixture(t)
	// authorname:mohan — the §7 "author:Levy" style query.
	answers, _, err := f.s.Query(context.Background(), Request{Terms: []string{"authorname:mohan"}, Qualified: true, DB: f.db}, defaultBibOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %d, want 2 Mohans", len(answers))
	}
	// A qualifier matching nothing yields no answers.
	answers, _, err = f.s.Query(context.Background(), Request{Terms: []string{"bogus:mohan"}, Qualified: true, DB: f.db}, defaultBibOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 0 {
		t.Errorf("bogus qualifier matched %d answers", len(answers))
	}
}

func TestSearchQualifiedMultiTerm(t *testing.T) {
	f := newBibFixture(t)
	answers, _, err := f.s.Query(context.Background(), Request{Terms: []string{"author:soumen", "author:sunita"}, Qualified: true, DB: f.db}, defaultBibOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("no answers")
	}
	soumen := f.node(t, "Author", "SoumenC")
	sunita := f.node(t, "Author", "SunitaS")
	if !answers[0].ContainsNode(soumen) || !answers[0].ContainsNode(sunita) {
		t.Error("top answer missing the qualified authors")
	}
}

func TestSearchPrefixMatching(t *testing.T) {
	f := newBibFixture(t)
	// "surpris" is not a token; prefix matching finds "surprising".
	answers, _, err := f.s.Query(context.Background(), Request{Terms: []string{"surpris"}, Qualified: true, Prefix: true, DB: f.db}, defaultBibOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("prefix match found nothing")
	}
	// Without prefix matching the same term finds nothing.
	none, _, err := f.s.Query(context.Background(), Request{Terms: []string{"surpris"}, Qualified: true, DB: f.db}, defaultBibOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Error("exact match should find nothing for a prefix")
	}
}
