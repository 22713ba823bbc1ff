package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/banksdb/banks/internal/sqldb"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks    []Token
	pos     int
	nparams int
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqlparse: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated list of statements.
func ParseAll(src string) ([]Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	var out []Statement
	for {
		for p.peek().Kind == TokOp && p.peek().Text == ";" {
			p.pos++
		}
		if p.peek().Kind == TokEOF {
			return out, nil
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		switch t := p.peek(); {
		case t.Kind == TokEOF:
		case t.Kind == TokOp && t.Text == ";":
		default:
			return nil, p.errorf("unexpected %q after statement", t.Text)
		}
	}
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) peek2() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return Token{Kind: TokEOF}
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

func (p *Parser) acceptKeyword(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().Text)
	}
	return nil
}

func (p *Parser) acceptOp(op string) bool {
	if t := p.peek(); t.Kind == TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errorf("expected %q, got %q", op, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	// Permit non-reserved keywords (e.g. aggregate names) as identifiers in
	// name positions, like real engines do for e.g. a column named "count".
	if t.Kind == TokIdent || (t.Kind == TokKeyword && !reserved[t.Text]) {
		p.pos++
		return t.Text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.Text)
}

// reserved keywords cannot be used as bare identifiers.
var reserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "CREATE": true,
	"TABLE": true, "DROP": true, "UPDATE": true, "SET": true, "DELETE": true,
	"ORDER": true, "GROUP": true, "HAVING": true, "LIMIT": true,
	"OFFSET": true, "JOIN": true, "INNER": true, "LEFT": true, "OUTER": true,
	"ON": true, "AS": true, "DISTINCT": true, "NULL": true, "LIKE": true,
	"IN": true, "IS": true, "BETWEEN": true, "PRIMARY": true, "FOREIGN": true,
	"REFERENCES": true, "BY": true,
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errorf("expected statement, got %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreateTable()
	case "DROP":
		return p.parseDropTable()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	}
	return nil, p.errorf("unsupported statement %q", t.Text)
}

func (p *Parser) parseCreateTable() (Statement, error) {
	p.next() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	schema := &sqldb.TableSchema{Name: name}
	for {
		t := p.peek()
		switch {
		case t.Kind == TokKeyword && t.Text == "PRIMARY":
			p.next()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				schema.PrimaryKey = append(schema.PrimaryKey, col)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
		case t.Kind == TokKeyword && t.Text == "FOREIGN":
			p.next()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			fk, err := p.parseReferences(col)
			if err != nil {
				return nil, err
			}
			schema.ForeignKeys = append(schema.ForeignKeys, fk)
		default:
			colName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typ, err := sqldb.ParseType(typName)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			// Skip a length spec like VARCHAR(255).
			if p.acceptOp("(") {
				for !p.acceptOp(")") {
					if p.peek().Kind == TokEOF {
						return nil, p.errorf("unterminated type length")
					}
					p.next()
				}
			}
			col := sqldb.Column{Name: colName, Type: typ}
			for {
				t := p.peek()
				if t.Kind == TokKeyword && t.Text == "NOT" {
					p.next()
					if err := p.expectKeyword("NULL"); err != nil {
						return nil, err
					}
					col.NotNull = true
					continue
				}
				if t.Kind == TokKeyword && t.Text == "PRIMARY" {
					p.next()
					if err := p.expectKeyword("KEY"); err != nil {
						return nil, err
					}
					schema.PrimaryKey = append(schema.PrimaryKey, colName)
					col.NotNull = true
					continue
				}
				if t.Kind == TokKeyword && t.Text == "UNIQUE" {
					p.next() // accepted and ignored; PK covers our needs
					continue
				}
				if t.Kind == TokKeyword && t.Text == "REFERENCES" {
					fk, err := p.parseReferences(colName)
					if err != nil {
						return nil, err
					}
					schema.ForeignKeys = append(schema.ForeignKeys, fk)
					continue
				}
				break
			}
			schema.Columns = append(schema.Columns, col)
		}
		if p.acceptOp(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		break
	}
	return &CreateTable{Schema: schema}, nil
}

// parseReferences parses REFERENCES tbl [(col)] [WEIGHT num] for the FK on
// the given column. WEIGHT is a BANKS extension setting the similarity
// s(R1,R2) from Section 2.2 of the paper.
func (p *Parser) parseReferences(col string) (sqldb.ForeignKey, error) {
	var fk sqldb.ForeignKey
	fk.Column = col
	if err := p.expectKeyword("REFERENCES"); err != nil {
		return fk, err
	}
	ref, err := p.expectIdent()
	if err != nil {
		return fk, err
	}
	fk.RefTable = ref
	if p.acceptOp("(") {
		rc, err := p.expectIdent()
		if err != nil {
			return fk, err
		}
		fk.RefColumn = rc
		if err := p.expectOp(")"); err != nil {
			return fk, err
		}
	}
	if p.acceptKeyword("WEIGHT") {
		t := p.peek()
		if t.Kind != TokNumber {
			return fk, p.errorf("expected number after WEIGHT")
		}
		p.next()
		w, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return fk, p.errorf("bad WEIGHT %q", t.Text)
		}
		fk.Weight = w
	}
	return fk, nil
}

func (p *Parser) parseDropTable() (Statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	u := &Update{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, SetClause{Column: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Where = w
	}
	return u, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *Parser) parseSelect() (*Select, error) {
	p.next() // SELECT
	s := &Select{}
	s.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		refs, err := p.parseFrom()
		if err != nil {
			return nil, err
		}
		s.From = refs
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	return s, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.acceptOp("*") {
		return SelectItem{Star: true}, nil
	}
	// table.* form
	if p.peek().Kind == TokIdent && p.peek2().Kind == TokOp && p.peek2().Text == "." {
		if p.pos+2 < len(p.toks) && p.toks[p.pos+2].Kind == TokOp && p.toks[p.pos+2].Text == "*" {
			tbl := p.next().Text
			p.next() // .
			p.next() // *
			return SelectItem{StarTable: tbl}, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		item.Alias = t.Text
	}
	return item, nil
}

func (p *Parser) parseFrom() ([]TableRef, error) {
	first, err := p.parseTableRef(JoinNone)
	if err != nil {
		return nil, err
	}
	refs := []TableRef{first}
	for {
		switch {
		case p.acceptOp(","):
			r, err := p.parseTableRef(JoinCross)
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		case p.peek().Kind == TokKeyword && (p.peek().Text == "JOIN" || p.peek().Text == "INNER" || p.peek().Text == "LEFT"):
			kind := JoinInner
			if p.acceptKeyword("LEFT") {
				kind = JoinLeft
				p.acceptKeyword("OUTER")
			} else {
				p.acceptKeyword("INNER")
			}
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			r, err := p.parseTableRef(kind)
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.On = on
			refs = append(refs, r)
		default:
			return refs, nil
		}
	}
}

func (p *Parser) parseTableRef(kind JoinKind) (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	r := TableRef{Table: name, Join: kind}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		r.Alias = a
	} else if t := p.peek(); t.Kind == TokIdent {
		p.pos++
		r.Alias = t.Text
	}
	return r, nil
}

// --- expression parsing, lowest precedence first ---

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// AND inside a BETWEEN binds to the BETWEEN, handled there.
		if t := p.peek(); t.Kind == TokKeyword && t.Text == "AND" {
			p.next()
			right, err := p.parseNot()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "AND", Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokOp {
		switch t.Text {
		case "=", "<", "<=", ">", ">=", "<>", "!=":
			p.next()
			op := t.Text
			if op == "!=" {
				op = "<>"
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	if t.Kind == TokKeyword {
		not := false
		save := p.pos
		if t.Text == "NOT" {
			nt := p.peek2()
			if nt.Kind == TokKeyword && (nt.Text == "LIKE" || nt.Text == "IN" || nt.Text == "BETWEEN") {
				p.next()
				not = true
				t = p.peek()
			}
		}
		switch t.Text {
		case "LIKE":
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			var e Expr = &BinaryExpr{Op: "LIKE", Left: left, Right: right}
			if not {
				e = &UnaryExpr{Op: "NOT", X: e}
			}
			return e, nil
		case "IN":
			p.next()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var list []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				list = append(list, e)
				if !p.acceptOp(",") {
					break
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &InExpr{X: left, List: list, Not: not}, nil
		case "BETWEEN":
			p.next()
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BetweenExpr{X: left, Lo: lo, Hi: hi, Not: not}, nil
		case "IS":
			p.next()
			isNot := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return &IsNullExpr{X: left, Not: isNot}, nil
		default:
			p.pos = save
		}
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOp && (t.Text == "+" || t.Text == "-" || t.Text == "||") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind == TokOp && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	p.acceptOp("+")
	return p.parsePrimary()
}

// scalarFuncs are the non-aggregate functions the executor evaluates.
var scalarFuncs = map[string]bool{
	"UPPER": true, "LOWER": true, "LENGTH": true, "ABS": true,
	"COALESCE": true, "SUBSTR": true,
}

// AggregateFuncs are the aggregate function names.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &Literal{Value: sqldb.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return &Literal{Value: sqldb.Int(i)}, nil
	case TokString:
		p.next()
		return &Literal{Value: sqldb.Text(t.Text)}, nil
	case TokParam:
		p.next()
		e := &Param{Index: p.nparams}
		p.nparams++
		return e, nil
	case TokKeyword:
		switch t.Text {
		case "NULL":
			p.next()
			return &Literal{Value: sqldb.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: sqldb.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: sqldb.Bool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			if n := p.peek2(); n.Kind == TokOp && n.Text == "(" {
				return p.parseFuncCall()
			}
			return p.parseIdentExpr()
		}
		if !reserved[t.Text] {
			return p.parseIdentExpr()
		}
	case TokIdent:
		return p.parseIdentExpr()
	case TokOp:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected %q in expression", t.Text)
}

func (p *Parser) parseFuncCall() (Expr, error) {
	name := strings.ToUpper(p.next().Text)
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: name}
	if p.acceptOp("*") {
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	f.Distinct = p.acceptKeyword("DISTINCT")
	if !p.acceptOp(")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// parseIdentExpr parses a column reference (possibly qualified) or a scalar
// function call.
func (p *Parser) parseIdentExpr() (Expr, error) {
	name := p.next().Text
	if t := p.peek(); t.Kind == TokOp && t.Text == "(" && scalarFuncs[strings.ToUpper(name)] {
		p.pos-- // rewind so parseFuncCall sees the name
		return p.parseFuncCall()
	}
	if p.acceptOp(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColumnRef{Table: name, Column: col}, nil
	}
	return &ColumnRef{Column: name}, nil
}
