package banks

import (
	"fmt"
	"strings"
	"unicode/utf8"

	"github.com/banksdb/banks/internal/cluster"
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
	"github.com/banksdb/banks/internal/sqldb"
)

// SearchOptions tune one keyword query. The zero value (or nil) uses the
// configuration the paper's evaluation found best: 10 answers, output heap
// of 20, λ=0.2, edge log-scaling on, additive combination.
type SearchOptions struct {
	// TopK is the number of answers to return (default 10).
	TopK int
	// HeapSize is the output-heap capacity of §3 (default 20).
	HeapSize int
	// Lambda weighs prestige against proximity in [0,1] (default 0.2).
	// Note that 0 is a meaningful value; set UseZeroLambda to select it
	// explicitly.
	Lambda float64
	// UseZeroLambda forces Lambda=0 (pure proximity). Needed because the
	// zero value of Lambda means "default 0.2".
	UseZeroLambda bool
	// DisableEdgeLog turns off log damping of edge weights (default on).
	DisableEdgeLog bool
	// NodeLog turns on log damping of node weights (default off).
	NodeLog bool
	// Multiplicative selects E·N^λ combination instead of additive.
	Multiplicative bool
	// ExcludedRootTables lists relations that may not serve as
	// information nodes (e.g. pure link tables such as Writes).
	ExcludedRootTables []string
	// AllowPartialMatch drops query terms that match nothing instead of
	// returning no answers.
	AllowPartialMatch bool
	// Budget bounds how much work this query may do before it is cut off
	// with a partial answer (see Budget). The zero value applies only the
	// engine's default pop cap.
	Budget Budget
}

// Budget is the per-query cost budget: exhausting any non-zero axis stops
// the search cleanly, returns the answers emitted so far, and reports the
// truncation in Stats.BudgetExhausted/BudgetReason.
type Budget struct {
	// MaxPops bounds shortest-path iterator pops (0: the engine default of
	// 2,000,000). Deterministic per query and snapshot.
	MaxPops int
	// MaxArcsScanned bounds graph arcs relaxed during expansion
	// (0: unlimited). Deterministic per query and snapshot.
	MaxArcsScanned int
	// MaxBytesFaulted bounds bytes faulted from the disk store while the
	// query runs (0: unlimited; meaningful only for store-backed systems).
	// The fault meter is engine-global, so this axis is a safety valve
	// rather than exact per-query accounting.
	MaxBytesFaulted int64
}

func (o *SearchOptions) toCore() *core.Options {
	c := core.DefaultOptions()
	if o == nil {
		return c
	}
	if o.TopK > 0 {
		c.TopK = o.TopK
	}
	if o.HeapSize > 0 {
		c.HeapSize = o.HeapSize
	}
	if o.UseZeroLambda {
		c.Score.Lambda = 0
	} else if o.Lambda != 0 {
		c.Score.Lambda = o.Lambda
	}
	c.Score.EdgeLog = !o.DisableEdgeLog
	c.Score.NodeLog = o.NodeLog
	if o.Multiplicative {
		c.Score.Combine = core.Multiplicative
	}
	c.ExcludedRootTables = o.ExcludedRootTables
	c.RequireAllTerms = !o.AllowPartialMatch
	c.Budget = core.Budget{
		MaxPops:         o.Budget.MaxPops,
		MaxArcsScanned:  o.Budget.MaxArcsScanned,
		MaxBytesFaulted: o.Budget.MaxBytesFaulted,
	}
	return c
}

// Tuple is one database row inside an answer tree.
type Tuple struct {
	Table   string
	RID     int64
	Columns []string
	Values  Row
}

// Label renders the tuple compactly: Table(col=val, ...), text values
// truncated for display.
func (t Tuple) Label() string {
	var b strings.Builder
	b.WriteString(t.Table)
	b.WriteString("(")
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c)
		b.WriteString("=")
		b.WriteString(truncate(fmt.Sprint(valueOrNull(t.Values[i])), 40))
	}
	b.WriteString(")")
	return b.String()
}

func valueOrNull(v interface{}) interface{} {
	if v == nil {
		return "NULL"
	}
	return v
}

// truncate caps s at n bytes, appending an ellipsis. The cut always lands
// on a rune boundary so multi-byte UTF-8 values truncate to valid text.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	cut := n - 1
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "…"
}

// TreeNode is one node of the rendered answer tree.
type TreeNode struct {
	Tuple      Tuple
	EdgeWeight float64 // weight of the edge from the parent (0 at the root)
	Children   []*TreeNode
	Matched    bool // whether this tuple matched a query keyword
}

// Answer is one keyword-query result: a connection tree rooted at the
// information node (§2).
type Answer struct {
	// Rank is the 1-based position in the result list.
	Rank int
	// Score is the overall §2.3 relevance in [0,1]; EScore and NScore are
	// its proximity and prestige components; Weight is the raw tree
	// weight.
	Score, EScore, NScore, Weight float64
	// Root is the information node's tuple.
	Root Tuple
	// Tree is the full connection tree rooted at Root.
	Tree *TreeNode
}

// Format renders the answer in the indented style of the paper's Figure 2.
func (a *Answer) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%2d. (%.4f) ", a.Rank, a.Score)
	formatNode(&b, a.Tree, 0)
	return b.String()
}

func formatNode(b *strings.Builder, n *TreeNode, depth int) {
	if depth > 0 {
		b.WriteString(strings.Repeat("    ", depth))
		b.WriteString("-> ")
	}
	b.WriteString(n.Tuple.Label())
	if n.Matched {
		b.WriteString("  *")
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		formatNode(b, c, depth+1)
	}
}

// answerFromRefs materializes one answer tree against db. Answers arrive
// as (table, rid) references — a single engine maps its nodes through the
// snapshot the search pinned (cluster.AnswerToWire), a cluster's merge
// produces them directly — so conversion never mixes the graph a search
// ran on with a newer one swapped in by a concurrent Compact. The database
// read lock is held for the duration of the tree walk: row storage appends
// under the write lock, and answers must not render half-written rows.
func answerFromRefs(db *sqldb.Database, a *cluster.Answer) *Answer {
	db.RLock()
	defer db.RUnlock()
	matched := make(map[cluster.Ref]bool, len(a.TermNodes))
	for _, r := range a.TermNodes {
		matched[r] = true
	}
	children := make(map[cluster.Ref][]cluster.Edge)
	for _, e := range a.Edges {
		children[e.From] = append(children[e.From], e)
	}
	var build func(r cluster.Ref, w float64) *TreeNode
	build = func(r cluster.Ref, w float64) *TreeNode {
		node := &TreeNode{Tuple: tupleAt(db, r), EdgeWeight: w, Matched: matched[r]}
		for _, e := range children[r] {
			node.Children = append(node.Children, build(e.To, e.W))
		}
		return node
	}
	tree := build(a.Root, 0)
	return &Answer{
		Rank:   a.Rank,
		Score:  a.Score,
		EScore: a.EScore,
		NScore: a.NScore,
		Weight: a.Weight,
		Root:   tree.Tuple,
		Tree:   tree,
	}
}

// tupleAt materializes the row behind a (table, rid) reference; the
// caller holds the database read lock. A row that is gone (deleted since
// the search pinned its snapshot) yields the bare reference.
func tupleAt(db *sqldb.Database, r cluster.Ref) Tuple {
	out := Tuple{Table: r.Table, RID: r.RID}
	t := db.Table(r.Table)
	if t == nil {
		return out
	}
	row := t.Row(sqldb.RID(r.RID))
	if row == nil {
		return out
	}
	for i, c := range t.Schema().Columns {
		out.Columns = append(out.Columns, c.Name)
		out.Values = append(out.Values, fromValue(row[i]))
	}
	return out
}

// Lookup returns, for one keyword, how many tuples match it directly and
// which relations match it as metadata — useful for query debugging UIs.
func (s *System) Lookup(term string) (tuples int, metadataTables []string) {
	eng := s.engine()
	m := eng.ix.Lookup(term)
	for _, tid := range m.Tables {
		metadataTables = append(metadataTables, eng.g.TableName(tid))
	}
	return len(m.Nodes), metadataTables
}

// TupleByPK fetches a tuple by its primary key rendered as text; the web
// UI's hyperlinks use it.
func (s *System) TupleByPK(table, pk string) (Tuple, bool) {
	eng := s.engine()
	t := s.db.inner.Table(table)
	if t == nil {
		return Tuple{}, false
	}
	s.db.inner.RLock()
	defer s.db.inner.RUnlock()
	rid := t.LookupPK([]sqldb.Value{sqldb.Text(pk)})
	if rid < 0 {
		// Try an integer key.
		var iv sqldb.Value
		if _, err := fmt.Sscanf(pk, "%d", &iv.I); err == nil {
			iv.T = sqldb.TypeInt
			rid = t.LookupPK([]sqldb.Value{iv})
		}
	}
	if rid < 0 {
		return Tuple{}, false
	}
	if eng.g.NodeOf(table, rid) == graph.NoNode {
		return Tuple{}, false
	}
	return tupleAt(s.db.inner, cluster.Ref{Table: table, RID: int64(rid)}), true
}
