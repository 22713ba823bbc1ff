package sqlparse

import (
	"strings"
	"testing"

	"github.com/banksdb/banks/internal/sqldb"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, 'it''s', 3.5 FROM t -- comment\nWHERE x >= ?")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", ",", "3.5", "FROM", "t", "WHERE", "x", ">=", "?", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %q", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[3] != TokString {
		t.Error("escaped string not lexed as string")
	}
	if kinds[11] != TokParam {
		t.Error("? not lexed as param")
	}
}

func TestLexerBlockComment(t *testing.T) {
	toks, err := Tokenize("SELECT /* hi\nthere */ 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[1].Text != "1" {
		t.Errorf("tokens = %v", toks)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "\"unterminated", "@"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

// TestLexerUnicodeIdentifiers: a bare identifier is a run of Unicode
// letters, marks and digits, decoded as runes, and only an ASCII word is
// a keyword. A stray non-ASCII symbol is reported as the rune it is.
func TestLexerUnicodeIdentifiers(t *testing.T) {
	toks, err := Tokenize("SELECT naïve, A\u0308rzte_2 FROM Ärzte WHERE ſelect = 1")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "SELECT"}, {TokIdent, "naïve"}, {TokOp, ","}, {TokIdent, "A\u0308rzte_2"},
		{TokKeyword, "FROM"}, {TokIdent, "Ärzte"}, {TokKeyword, "WHERE"}, {TokIdent, "ſelect"},
		{TokOp, "="}, {TokNumber, "1"}, {TokEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v %q, want %v %q", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
	_, err = Tokenize("SELECT § FROM t")
	if err == nil || !strings.Contains(err.Error(), "'§' at offset 7") {
		t.Errorf("stray symbol: err = %v", err)
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE Writes (
		AuthorId VARCHAR(32) NOT NULL REFERENCES Author(AuthorId) WEIGHT 1.5,
		PaperId  TEXT REFERENCES Paper,
		Position INT,
		PRIMARY KEY (AuthorId, PaperId)
	)`)
	ct, ok := s.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", s)
	}
	sc := ct.Schema
	if sc.Name != "Writes" || len(sc.Columns) != 3 {
		t.Fatalf("schema = %+v", sc)
	}
	if sc.Columns[0].Type != sqldb.TypeText || !sc.Columns[0].NotNull {
		t.Errorf("col0 = %+v", sc.Columns[0])
	}
	if len(sc.PrimaryKey) != 2 {
		t.Errorf("PK = %v", sc.PrimaryKey)
	}
	if len(sc.ForeignKeys) != 2 {
		t.Fatalf("FKs = %v", sc.ForeignKeys)
	}
	if sc.ForeignKeys[0].Weight != 1.5 || sc.ForeignKeys[0].RefColumn != "AuthorId" {
		t.Errorf("FK0 = %+v", sc.ForeignKeys[0])
	}
	if sc.ForeignKeys[1].RefColumn != "" {
		t.Errorf("FK1 RefColumn should be unresolved, got %+v", sc.ForeignKeys[1])
	}
}

func TestParseCreateTableInlinePK(t *testing.T) {
	s := mustParse(t, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	ct := s.(*CreateTable)
	if len(ct.Schema.PrimaryKey) != 1 || ct.Schema.PrimaryKey[0] != "id" {
		t.Errorf("PK = %v", ct.Schema.PrimaryKey)
	}
	if !ct.Schema.Columns[0].NotNull {
		t.Error("inline PK should imply NOT NULL")
	}
}

func TestParseForeignKeyClause(t *testing.T) {
	s := mustParse(t, "CREATE TABLE c (a INT, FOREIGN KEY (a) REFERENCES p (id) WEIGHT 2)")
	ct := s.(*CreateTable)
	if len(ct.Schema.ForeignKeys) != 1 {
		t.Fatalf("FKs = %v", ct.Schema.ForeignKeys)
	}
	fk := ct.Schema.ForeignKeys[0]
	if fk.Column != "a" || fk.RefTable != "p" || fk.RefColumn != "id" || fk.Weight != 2 {
		t.Errorf("fk = %+v", fk)
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	ins := s.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("ins = %+v", ins)
	}
	lit := ins.Rows[1][1].(*Literal)
	if !lit.Value.IsNull() {
		t.Errorf("row1 col1 = %v", lit.Value)
	}
}

func TestParseInsertParams(t *testing.T) {
	s := mustParse(t, "INSERT INTO t VALUES (?, ?, ?)")
	if got := CountParams(s); got != 3 {
		t.Errorf("CountParams = %d", got)
	}
	ins := s.(*Insert)
	for i, e := range ins.Rows[0] {
		if p, ok := e.(*Param); !ok || p.Index != i {
			t.Errorf("param %d = %#v", i, e)
		}
	}
}

func TestParseSelectFull(t *testing.T) {
	s := mustParse(t, `SELECT DISTINCT a.name, COUNT(*) AS n
		FROM author a JOIN writes w ON w.authorid = a.authorid
		LEFT JOIN paper p ON p.paperid = w.paperid
		WHERE a.name LIKE '%gray%' AND p.year >= 1980
		GROUP BY a.name HAVING COUNT(*) > 2
		ORDER BY n DESC, a.name LIMIT 10 OFFSET 5`)
	sel := s.(*Select)
	if !sel.Distinct || len(sel.Items) != 2 || len(sel.From) != 3 {
		t.Fatalf("select = %+v", sel)
	}
	if sel.From[1].Join != JoinInner || sel.From[2].Join != JoinLeft {
		t.Errorf("joins = %v %v", sel.From[1].Join, sel.From[2].Join)
	}
	if sel.From[0].Alias != "a" {
		t.Errorf("alias = %q", sel.From[0].Alias)
	}
	if sel.Items[1].Alias != "n" {
		t.Errorf("item alias = %q", sel.Items[1].Alias)
	}
	if sel.Where == nil || sel.Having == nil || sel.Limit == nil || sel.Offset == nil {
		t.Error("missing clauses")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
}

func TestParseSelectStarForms(t *testing.T) {
	s := mustParse(t, "SELECT *, t.* FROM t")
	sel := s.(*Select)
	if !sel.Items[0].Star {
		t.Error("item 0 should be *")
	}
	if sel.Items[1].StarTable != "t" {
		t.Errorf("item 1 = %+v", sel.Items[1])
	}
}

func TestParseExprPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT 1 + 2 * 3 = 7 AND NOT 1 > 2 OR 0 = 1")
	sel := s.(*Select)
	got := sel.Items[0].Expr.String()
	want := "(((1 + (2 * 3)) = 7) AND (NOT (1 > 2))) OR (0 = 1)"
	if got != "("+want+")" && got != want {
		t.Errorf("precedence tree = %s", got)
	}
}

func TestParseInBetweenIsNull(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE a IN (1,2) AND b NOT IN (3) AND c BETWEEN 1 AND 5 AND d IS NOT NULL AND e IS NULL AND f NOT LIKE 'x%'")
	sel := s.(*Select)
	str := sel.Where.String()
	for _, frag := range []string{"IN (1, 2)", "NOT IN (3)", "BETWEEN 1 AND 5", "IS NOT NULL", "IS NULL", "NOT (f LIKE 'x%')"} {
		if !strings.Contains(str, frag) {
			t.Errorf("WHERE %s missing %q", str, frag)
		}
	}
}

func TestParseUpdateDelete(t *testing.T) {
	s := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3")
	u := s.(*Update)
	if u.Table != "t" || len(u.Set) != 2 || u.Where == nil {
		t.Fatalf("update = %+v", u)
	}
	s = mustParse(t, "DELETE FROM t WHERE id = 3")
	d := s.(*Delete)
	if d.Table != "t" || d.Where == nil {
		t.Fatalf("delete = %+v", d)
	}
	s = mustParse(t, "DELETE FROM t")
	if s.(*Delete).Where != nil {
		t.Error("where should be nil")
	}
}

func TestParseDropTable(t *testing.T) {
	s := mustParse(t, "DROP TABLE old")
	if s.(*DropTable).Name != "old" {
		t.Errorf("drop = %+v", s)
	}
}

func TestParseAllMultiStatement(t *testing.T) {
	stmts, err := ParseAll("CREATE TABLE a (x INT); INSERT INTO a VALUES (1); SELECT * FROM a;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"CREATE TABLE (a INT)",
		"CREATE TABLE t (a BLOB)",
		"INSERT INTO t VALUES 1",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t GROUP a",
		"UPDATE t SET",
		"SELECT a FROM t ORDER",
		"SELECT * FROM t JOIN u",
		"SELECT (1 FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseScalarFuncs(t *testing.T) {
	s := mustParse(t, "SELECT UPPER(name), LENGTH(name), COALESCE(a, b, 0) FROM t")
	sel := s.(*Select)
	f := sel.Items[0].Expr.(*FuncCall)
	if f.Name != "UPPER" || len(f.Args) != 1 {
		t.Errorf("f = %+v", f)
	}
	f3 := sel.Items[2].Expr.(*FuncCall)
	if len(f3.Args) != 3 {
		t.Errorf("coalesce args = %d", len(f3.Args))
	}
}

func TestParseAggregates(t *testing.T) {
	s := mustParse(t, "SELECT COUNT(*), COUNT(DISTINCT a), SUM(b), MIN(c), MAX(c), AVG(b) FROM t")
	sel := s.(*Select)
	if !sel.Items[0].Expr.(*FuncCall).Star {
		t.Error("COUNT(*) star flag missing")
	}
	if !sel.Items[1].Expr.(*FuncCall).Distinct {
		t.Error("COUNT(DISTINCT) flag missing")
	}
}

func TestKeywordsAsColumnNames(t *testing.T) {
	// Non-reserved keywords (aggregate names, WEIGHT) can name columns.
	// The lexer canonicalizes keywords to upper case; column resolution is
	// case-insensitive, so that is fine.
	s := mustParse(t, "SELECT count, weight FROM t")
	sel := s.(*Select)
	if !strings.EqualFold(sel.Items[0].Expr.(*ColumnRef).Column, "count") {
		t.Errorf("item0 = %+v", sel.Items[0].Expr)
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	s := mustParse(t, `SELECT "select" FROM "from"`)
	sel := s.(*Select)
	if sel.Items[0].Expr.(*ColumnRef).Column != "select" {
		t.Errorf("quoted ident = %+v", sel.Items[0].Expr)
	}
	if sel.From[0].Table != "from" {
		t.Errorf("quoted table = %+v", sel.From[0])
	}
}

func TestNumberForms(t *testing.T) {
	s := mustParse(t, "SELECT 1, 1.5, .5, 2e3, -4")
	sel := s.(*Select)
	if v := sel.Items[0].Expr.(*Literal).Value; v.T != sqldb.TypeInt || v.I != 1 {
		t.Errorf("int literal = %v", v)
	}
	if v := sel.Items[1].Expr.(*Literal).Value; v.T != sqldb.TypeFloat || v.F != 1.5 {
		t.Errorf("float literal = %v", v)
	}
	if v := sel.Items[2].Expr.(*Literal).Value; v.F != 0.5 {
		t.Errorf(".5 literal = %v", v)
	}
	if v := sel.Items[3].Expr.(*Literal).Value; v.F != 2000 {
		t.Errorf("2e3 literal = %v", v)
	}
	u := sel.Items[4].Expr.(*UnaryExpr)
	if u.Op != "-" {
		t.Errorf("negation = %+v", u)
	}
}
