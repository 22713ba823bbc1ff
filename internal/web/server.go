// Package web serves the BANKS user interface over HTTP: keyword search
// with hyperlinked connection trees, the Section 4 browsing views (project
// / select / join / group-by / sort / paginate, with every foreign key a
// hyperlink and backward reference browsing), schema display, and the four
// display templates including SVG charts. It is the stdlib counterpart of
// the original system's Java servlets.
package web

import (
	"context"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/banksdb/banks/internal/browse"
	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/index"
	"github.com/banksdb/banks/internal/serve"
	"github.com/banksdb/banks/internal/sqldb"
	"github.com/banksdb/banks/internal/sqlexec"
)

// SearchFunc runs one keyword search for the door. terms are already
// tokenized. The result carries the answers as (table, rid) trees — the
// identity every canonical tie-break is defined over, valid for a single
// engine and across partitions alike — and the execution statistics, whose
// budget verdict the page reports and which the slow-query log records. A
// failed search may still return its statistics with the error.
type SearchFunc func(ctx context.Context, terms []string) (*cluster.Result, error)

// Config is everything a Server is built from.
type Config struct {
	// DB holds the rows every page renders: search results read them by
	// (table, rid), the browsing views query them.
	DB *sqldb.Database
	// Search is the backend behind /search: a single engine or a
	// scatter-gather cluster.
	Search SearchFunc
	// Strategy names how the backend searches ("backward" for one engine,
	// "distributed" for a cluster); it labels the per-(strategy, class)
	// latency histograms and the slow-query log.
	Strategy string
	// Door is the overload policy in front of /search. With Door.Metrics
	// set the server also mounts /debug and /debug/vars.
	Door serve.Door
}

// Server is the BANKS web UI, and the only /search handler in the repo.
type Server struct {
	cfg    Config
	db     *sqldb.Database
	engine *sqlexec.Engine
	mux    *http.ServeMux
}

// NewServer builds the web UI over cfg.
func NewServer(cfg Config) *Server {
	s := &Server{cfg: cfg, db: cfg.DB, engine: sqlexec.New(cfg.DB)}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleHome)
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/browse", s.handleBrowse)
	mux.HandleFunc("/tuple", s.handleTuple)
	mux.HandleFunc("/schema", s.handleSchema)
	mux.HandleFunc("/template", s.handleTemplate)
	if m := cfg.Door.Metrics; m != nil {
		mux.Handle("/debug", serve.DebugHandler(m))
		mux.Handle("/debug/vars", serve.DebugHandler(m))
	}
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}} — BANKS</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #aaa; padding: 3px 8px; }
.keyword { background: #ffd; font-weight: bold; }
.tree ul { list-style: none; }
.score { color: #666; font-size: smaller; }
nav a { margin-right: 1em; }
</style></head>
<body>
<nav><a href="/">Search</a> <a href="/schema">Schema</a></nav>
<h1>{{.Title}}</h1>
{{.Body}}
</body></html>`))

func (s *Server) render(w http.ResponseWriter, title string, body template.HTML) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = pageTmpl.Execute(w, struct {
		Title string
		Body  template.HTML
	}{Title: title, Body: body})
}

func (s *Server) renderError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(status)
	_ = pageTmpl.Execute(w, struct {
		Title string
		Body  template.HTML
	}{Title: "Error", Body: template.HTML("<p>" + template.HTMLEscapeString(err.Error()) + "</p>")})
}

// searchFormHTML renders the search form: keywords and an optional
// per-query timeout (empty = none).
func searchFormHTML(q, timeout string) string {
	return fmt.Sprintf(`<form action="/search"><input name="q" size="40" placeholder="keywords..." value="%s"> `+
		`timeout <input name="timeout" size="6" placeholder="none" value="%s"> <input type="submit" value="Search"></form>`,
		template.HTMLEscapeString(q), template.HTMLEscapeString(timeout))
}

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	var b strings.Builder
	b.WriteString(searchFormHTML("", ""))
	b.WriteString("<h2>Relations</h2><ul>")
	s.db.RLock()
	for _, name := range s.db.TableNames() {
		if name == "banks_templates" {
			continue
		}
		t := s.db.Table(name)
		fmt.Fprintf(&b, `<li><a href="/browse?table=%s">%s</a> (%d rows)</li>`,
			template.URLQueryEscaper(name), template.HTMLEscapeString(name), t.Len())
	}
	s.db.RUnlock()
	b.WriteString("</ul>")
	if names, err := browse.ListTemplates(s.engine); err == nil && len(names) > 0 {
		b.WriteString("<h2>Templates</h2><ul>")
		for _, n := range names {
			fmt.Fprintf(&b, `<li><a href="/template?name=%s">%s</a></li>`,
				template.URLQueryEscaper(n), template.HTMLEscapeString(n))
		}
		b.WriteString("</ul>")
	}
	s.render(w, "BANKS: Browsing ANd Keyword Searching", template.HTML(b.String()))
}

// tupleHTML renders the row behind ref, hyperlinked to its /tuple page
// when the table has a single-column primary key. The row is read straight
// from the database; the caller holds its read lock. A row deleted after
// the search pinned its snapshot renders as a placeholder.
func (s *Server) tupleHTML(ref cluster.Ref, matched bool) string {
	var row []sqldb.Value
	t := s.db.Table(ref.Table)
	if t != nil {
		row = t.Row(sqldb.RID(ref.RID))
	}
	var label string
	if row == nil {
		label = template.HTMLEscapeString(fmt.Sprintf("%s#%d (deleted)", ref.Table, ref.RID))
	} else {
		schema := t.Schema()
		var cells []string
		for i, c := range schema.Columns {
			cells = append(cells, template.HTMLEscapeString(c.Name+"="+row[i].String()))
		}
		label = template.HTMLEscapeString(ref.Table) + "(" + strings.Join(cells, ", ") + ")"
		if len(schema.PrimaryKey) == 1 {
			if pk := row[schema.ColumnIndex(schema.PrimaryKey[0])].String(); pk != "" {
				label = fmt.Sprintf(`<a href="/tuple?table=%s&pk=%s">%s</a>`,
					template.URLQueryEscaper(ref.Table), template.URLQueryEscaper(pk), label)
			}
		}
	}
	if matched {
		label = `<span class="keyword">` + label + `</span>`
	}
	return label
}

// handleSearch is the one /search path: tokenize, validate, run through
// the door, render. Everything the client can get wrong is rejected with
// 400 before admission, so a malformed request never occupies a worker
// slot and every admitted request is one observed query.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	timeoutParam := r.URL.Query().Get("timeout")
	if strings.TrimSpace(q) == "" {
		s.render(w, "Search", template.HTML(searchFormHTML("", timeoutParam)))
		return
	}
	// The same tokenization System.Query and Cluster.Query apply, so
	// "sunita, soumen" is the two-term query it reads as; the token count
	// picks the class and therefore the gate.
	terms := index.Tokenize(q)
	if len(terms) == 0 {
		s.renderError(w, http.StatusBadRequest, fmt.Errorf("empty query: no keywords in %q", q))
		return
	}
	var timeout time.Duration
	if timeoutParam != "" {
		d, err := time.ParseDuration(timeoutParam)
		if err != nil || d <= 0 {
			s.renderError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q (want a duration like 500ms)", timeoutParam))
			return
		}
		timeout = d
	}

	res, st := serve.Do(r.Context(), &s.cfg.Door, serve.Request{
		Query:    q,
		Strategy: s.cfg.Strategy,
		Class:    serve.ClassOf(len(terms), false, false),
		Timeout:  timeout,
	}, func(ctx context.Context) (*cluster.Result, serve.Outcome, error) {
		res, err := s.cfg.Search(ctx, terms)
		if res == nil {
			return nil, serve.Outcome{}, err
		}
		return res, serve.Outcome{BudgetExhausted: res.Stats.BudgetExhausted, Detail: &res.Stats}, err
	})
	if st.Code == 0 {
		return // client disconnected; nobody is listening
	}
	if st.Code != http.StatusOK {
		if st.RetryAfter > 0 {
			// The "come back later" contract that tells well-behaved
			// clients to back off instead of hammering.
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(st.RetryAfter.Seconds()))))
		}
		s.renderError(w, st.Code, st.Err)
		return
	}

	var b strings.Builder
	b.WriteString(searchFormHTML(q, timeoutParam))
	if res.Stats.BudgetExhausted {
		fmt.Fprintf(&b, `<p class="score">Partial results: the query exhausted its %s budget.</p>`,
			template.HTMLEscapeString(res.Stats.BudgetReason))
	}
	if len(res.Answers) == 0 {
		b.WriteString("<p>No results.</p>")
	}
	// Row reads during tree rendering hold the database read lock so a
	// concurrent writer cannot expose half-written rows.
	s.db.RLock()
	for i := range res.Answers {
		a := &res.Answers[i]
		matched := make(map[cluster.Ref]bool, len(a.TermNodes))
		for _, n := range a.TermNodes {
			matched[n] = true
		}
		children := make(map[cluster.Ref][]cluster.Ref)
		for _, e := range a.Edges {
			children[e.From] = append(children[e.From], e.To)
		}
		fmt.Fprintf(&b, `<div class="tree"><p>%d. <span class="score">score %.4f</span></p><ul><li>`,
			a.Rank, a.Score)
		var walk func(n cluster.Ref)
		walk = func(n cluster.Ref) {
			b.WriteString(s.tupleHTML(n, matched[n]))
			if len(children[n]) > 0 {
				b.WriteString("<ul>")
				for _, c := range children[n] {
					b.WriteString("<li>")
					walk(c)
					b.WriteString("</li>")
				}
				b.WriteString("</ul>")
			}
		}
		walk(a.Root)
		b.WriteString("</li></ul></div>")
	}
	s.db.RUnlock()
	s.render(w, "Results for "+q, template.HTML(b.String()))
}

// parseView decodes the browsing controls from query parameters.
func parseView(r *http.Request) *browse.View {
	q := r.URL.Query()
	v := &browse.View{Table: q.Get("table")}
	for _, d := range q["drop"] {
		if d != "" {
			v.Dropped = append(v.Dropped, d)
		}
	}
	if c, op, val := q.Get("fcol"), q.Get("fop"), q.Get("fval"); c != "" && op != "" {
		v.Filters = append(v.Filters, browse.Filter{Column: c, Op: op, Value: val})
	}
	for _, j := range q["join"] {
		if j != "" {
			v.Joins = append(v.Joins, browse.Join{FKColumn: j})
		}
	}
	v.GroupBy = q.Get("groupby")
	v.OrderBy = q.Get("orderby")
	v.Desc = q.Get("desc") == "1"
	if p, err := strconv.Atoi(q.Get("page")); err == nil && p >= 0 {
		v.Page = p
	}
	return v
}

func (s *Server) handleBrowse(w http.ResponseWriter, r *http.Request) {
	v := parseView(r)
	if v.Table == "" {
		s.renderError(w, http.StatusBadRequest, fmt.Errorf("missing table parameter"))
		return
	}
	res, err := v.Run(s.engine)
	if err != nil {
		s.renderError(w, http.StatusBadRequest, err)
		return
	}
	t := s.db.Table(v.Table)
	var b strings.Builder
	// Column controls: drop / sort / group-by, as in Figure 4's header
	// menus, rendered as links.
	b.WriteString("<table><tr>")
	for _, c := range res.Columns {
		esc := template.HTMLEscapeString(c)
		uq := template.URLQueryEscaper(c)
		tq := template.URLQueryEscaper(v.Table)
		fmt.Fprintf(&b, `<th>%s<br><a href="/browse?table=%s&orderby=%s">sort</a> `+
			`<a href="/browse?table=%s&orderby=%s&desc=1">desc</a> `+
			`<a href="/browse?table=%s&drop=%s">drop</a> `+
			`<a href="/browse?table=%s&groupby=%s">group</a></th>`,
			esc, tq, uq, tq, uq, tq, uq, tq, uq)
	}
	b.WriteString("</tr>")
	// FK columns become hyperlinks.
	fkFor := map[string]sqldb.ForeignKey{}
	if t != nil {
		for _, fk := range t.Schema().ForeignKeys {
			fkFor[strings.ToLower(fk.Column)] = fk
		}
	}
	for _, row := range res.Rows {
		b.WriteString("<tr>")
		for i, val := range row {
			cell := template.HTMLEscapeString(val.String())
			if i < len(res.Columns) {
				if fk, ok := fkFor[strings.ToLower(res.Columns[i])]; ok && !val.IsNull() {
					cell = fmt.Sprintf(`<a href="/tuple?table=%s&pk=%s">%s</a>`,
						template.URLQueryEscaper(fk.RefTable), template.URLQueryEscaper(val.String()), cell)
				}
			}
			b.WriteString("<td>" + cell + "</td>")
		}
		b.WriteString("</tr>")
	}
	b.WriteString("</table>")
	// Join-in controls for each FK, and pagination.
	if t != nil && len(t.Schema().ForeignKeys) > 0 && v.GroupBy == "" {
		b.WriteString("<p>Join in: ")
		for _, fk := range t.Schema().ForeignKeys {
			fmt.Fprintf(&b, `<a href="/browse?table=%s&join=%s">%s→%s</a> `,
				template.URLQueryEscaper(v.Table), template.URLQueryEscaper(fk.Column),
				template.HTMLEscapeString(fk.Column), template.HTMLEscapeString(fk.RefTable))
		}
		b.WriteString("</p>")
	}
	fmt.Fprintf(&b, `<p><a href="/browse?table=%s&page=%d">next page</a></p>`,
		template.URLQueryEscaper(v.Table), v.Page+1)
	s.render(w, "Browse "+v.Table, template.HTML(b.String()))
}

func (s *Server) handleTuple(w http.ResponseWriter, r *http.Request) {
	table := r.URL.Query().Get("table")
	pk := r.URL.Query().Get("pk")
	t := s.db.Table(table)
	if t == nil {
		s.renderError(w, http.StatusNotFound, fmt.Errorf("no table %q", table))
		return
	}
	// Key lookup and row read take the database read lock; the returned
	// row slice is immutable once inserted, so it is safe to render after
	// release (LinksFor manages its own locking).
	s.db.RLock()
	rid := t.LookupPK([]sqldb.Value{sqldb.Text(pk)})
	if rid < 0 {
		if i, err := strconv.ParseInt(pk, 10, 64); err == nil {
			rid = t.LookupPK([]sqldb.Value{sqldb.Int(i)})
		}
	}
	if rid < 0 {
		s.db.RUnlock()
		s.renderError(w, http.StatusNotFound, fmt.Errorf("no %s row with key %q", table, pk))
		return
	}
	row := t.Row(rid)
	s.db.RUnlock()
	links, err := browse.LinksFor(s.db, table, rid)
	if err != nil {
		s.renderError(w, http.StatusInternalServerError, err)
		return
	}
	var b strings.Builder
	b.WriteString("<table>")
	outFor := map[string]browse.OutLink{}
	for _, l := range links.Out {
		outFor[strings.ToLower(l.Column)] = l
	}
	for i, c := range t.Schema().Columns {
		val := template.HTMLEscapeString(row[i].String())
		if l, ok := outFor[strings.ToLower(c.Name)]; ok {
			val = fmt.Sprintf(`<a href="/tuple?table=%s&pk=%s">%s</a>`,
				template.URLQueryEscaper(l.RefTable), template.URLQueryEscaper(l.RefValue), val)
		}
		fmt.Fprintf(&b, "<tr><th>%s</th><td>%s</td></tr>", template.HTMLEscapeString(c.Name), val)
	}
	b.WriteString("</table>")
	if len(links.In) > 0 {
		b.WriteString("<h2>Referenced by</h2><ul>")
		for _, in := range links.In {
			fmt.Fprintf(&b, "<li>%s.%s (%d rows)</li>",
				template.HTMLEscapeString(in.Table), template.HTMLEscapeString(in.Column), len(in.RIDs))
		}
		b.WriteString("</ul>")
	}
	s.render(w, fmt.Sprintf("%s %s", table, pk), template.HTML(b.String()))
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	for _, name := range s.db.TableNames() {
		t := s.db.Table(name)
		fmt.Fprintf(&b, "<h2>%s</h2><pre>%s</pre>",
			template.HTMLEscapeString(name), template.HTMLEscapeString(t.Schema().String()))
	}
	s.render(w, "Schema", template.HTML(b.String()))
}

func (s *Server) handleTemplate(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	tpl, err := browse.LoadTemplate(s.engine, name)
	if err != nil {
		s.renderError(w, http.StatusNotFound, err)
		return
	}
	var body template.HTML
	switch tpl.Kind {
	case browse.KindCrossTab:
		ct, err := browse.RenderCrossTab(s.engine, tpl)
		if err != nil {
			s.renderError(w, http.StatusBadRequest, err)
			return
		}
		body = crossTabHTML(ct)
	case browse.KindGroupBy, browse.KindFolder:
		lvl, err := browse.RenderHierarchy(s.engine, tpl, r.URL.Query()["path"])
		if err != nil {
			s.renderError(w, http.StatusBadRequest, err)
			return
		}
		body = hierarchyHTML(name, tpl.Kind, lvl)
	case browse.KindChart:
		ch, err := browse.RenderChart(s.engine, tpl)
		if err != nil {
			s.renderError(w, http.StatusBadRequest, err)
			return
		}
		body = chartHTML(ch, tpl.Spec["link"])
	default:
		s.renderError(w, http.StatusInternalServerError, fmt.Errorf("unknown template kind %q", tpl.Kind))
		return
	}
	s.render(w, "Template "+name, body)
}

func crossTabHTML(ct *browse.CrossTab) template.HTML {
	var b strings.Builder
	b.WriteString("<table><tr><th>" + template.HTMLEscapeString(ct.RowAttr+" \\ "+ct.ColAttr) + "</th>")
	for _, c := range ct.ColVals {
		b.WriteString("<th>" + template.HTMLEscapeString(c) + "</th>")
	}
	b.WriteString("</tr>")
	for _, rv := range ct.RowVals {
		b.WriteString("<tr><th>" + template.HTMLEscapeString(rv) + "</th>")
		for _, cv := range ct.ColVals {
			b.WriteString("<td>" + template.HTMLEscapeString(ct.Cells[[2]string{rv, cv}]) + "</td>")
		}
		b.WriteString("</tr>")
	}
	b.WriteString("</table>")
	return template.HTML(b.String())
}

func hierarchyHTML(name string, kind browse.TemplateKind, lvl *browse.HierLevel) template.HTML {
	var b strings.Builder
	if lvl.Leaves != nil {
		b.WriteString("<table><tr>")
		for _, c := range lvl.Leaves.Columns {
			b.WriteString("<th>" + template.HTMLEscapeString(c) + "</th>")
		}
		b.WriteString("</tr>")
		for _, row := range lvl.Leaves.Rows {
			b.WriteString("<tr>")
			for _, v := range row {
				b.WriteString("<td>" + template.HTMLEscapeString(v.String()) + "</td>")
			}
			b.WriteString("</tr>")
		}
		b.WriteString("</table>")
		return template.HTML(b.String())
	}
	marker := "📂 "
	if kind == browse.KindGroupBy {
		marker = ""
	}
	b.WriteString("<ul>")
	for _, v := range lvl.Values {
		href := "/template?name=" + template.URLQueryEscaper(name)
		for _, p := range lvl.Path {
			href += "&path=" + template.URLQueryEscaper(p)
		}
		href += "&path=" + template.URLQueryEscaper(v.Value)
		fmt.Fprintf(&b, `<li>%s<a href="%s">%s</a> (%d)</li>`,
			marker, href, template.HTMLEscapeString(v.Value), v.Count)
	}
	b.WriteString("</ul>")
	return template.HTML(b.String())
}

// chartHTML renders bar, line and pie charts as inline SVG; link, when
// set, names the template each datum links to (template composition).
func chartHTML(ch *browse.Chart, link string) template.HTML {
	var b strings.Builder
	const w, h = 480, 240
	maxV := 0.0
	total := 0.0
	for _, v := range ch.Values {
		if v > maxV {
			maxV = v
		}
		total += v
	}
	if maxV == 0 {
		maxV = 1
	}
	fmt.Fprintf(&b, `<svg width="%d" height="%d" xmlns="http://www.w3.org/2000/svg">`, w, h+40)
	n := len(ch.Values)
	switch ch.Style {
	case "bar":
		bw := w / max(n, 1)
		for i, v := range ch.Values {
			bh := int(v / maxV * float64(h))
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#48a"><title>%s: %g</title></rect>`,
				i*bw+2, h-bh, bw-4, bh, template.HTMLEscapeString(ch.Labels[i]), v)
			fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="10">%s</text>`,
				i*bw+2, h+14, template.HTMLEscapeString(ch.Labels[i]))
		}
	case "line":
		step := float64(w) / float64(max(n-1, 1))
		var pts []string
		for i, v := range ch.Values {
			pts = append(pts, fmt.Sprintf("%d,%d", int(float64(i)*step), h-int(v/maxV*float64(h))))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#48a" stroke-width="2"/>`, strings.Join(pts, " "))
	case "pie":
		cx, cy, rad := w/2, h/2, h/2-10
		angle := 0.0
		for i, v := range ch.Values {
			frac := v / maxOr1(total)
			a2 := angle + frac*2*3.14159265358979
			large := 0
			if frac > 0.5 {
				large = 1
			}
			x1, y1 := arcPoint(cx, cy, rad, angle)
			x2, y2 := arcPoint(cx, cy, rad, a2)
			fmt.Fprintf(&b, `<path d="M%d,%d L%d,%d A%d,%d 0 %d 1 %d,%d Z" fill="hsl(%d,60%%,60%%)"><title>%s: %g</title></path>`,
				cx, cy, x1, y1, rad, rad, large, x2, y2, (i*67)%360, template.HTMLEscapeString(ch.Labels[i]), v)
			angle = a2
		}
	}
	b.WriteString("</svg>")
	if link != "" {
		fmt.Fprintf(&b, `<p>Drill down: <a href="/template?name=%s">%s</a></p>`,
			template.URLQueryEscaper(link), template.HTMLEscapeString(link))
	}
	return template.HTML(b.String())
}

func arcPoint(cx, cy, r int, angle float64) (int, int) {
	return cx + int(float64(r)*math.Cos(angle)), cy + int(float64(r)*math.Sin(angle))
}

func maxOr1(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
