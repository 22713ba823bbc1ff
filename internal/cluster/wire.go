package cluster

// Wire types: the JSON-codable request/response vocabulary shared by the
// in-process and HTTP partition adapters. Partitions do not hold the
// database rows, so answers travel as (table, rid) references — exactly
// the identity the engine's canonical tie-breaks are defined over — and
// the cluster front door renders tuples against its own database copy.

import (
	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
)

// Request is one scatter-gather query as sent to a partition. It carries
// the fully resolved search options (defaults already applied by the
// front door), so every partition executes under exactly the parameters
// the single-engine search would — the precondition for score parity.
type Request struct {
	Terms     []string `json:"terms"`
	Qualified bool     `json:"qualified,omitempty"`
	Prefix    bool     `json:"prefix,omitempty"`

	TopK               int      `json:"topk"`
	HeapSize           int      `json:"heap_size"`
	Lambda             float64  `json:"lambda"`
	EdgeLog            bool     `json:"edge_log"`
	NodeLog            bool     `json:"node_log,omitempty"`
	Multiplicative     bool     `json:"multiplicative,omitempty"`
	ExcludedRootTables []string `json:"excluded_root_tables,omitempty"`
	MetadataNodeLimit  int      `json:"metadata_node_limit"`
	MaxPops            int      `json:"max_pops"`
	MaxArcsScanned     int      `json:"max_arcs_scanned,omitempty"`
	MaxBytesFaulted    int64    `json:"max_bytes_faulted,omitempty"`
	MaxCombosPerVisit  int      `json:"max_combos_per_visit"`
	RequireAllTerms    bool     `json:"require_all_terms"`
}

// RequestFromOptions freezes resolved core options into a wire request.
func RequestFromOptions(terms []string, qualified, prefix bool, o *core.Options) Request {
	return Request{
		Terms:              terms,
		Qualified:          qualified,
		Prefix:             prefix,
		TopK:               o.TopK,
		HeapSize:           o.HeapSize,
		Lambda:             o.Score.Lambda,
		EdgeLog:            o.Score.EdgeLog,
		NodeLog:            o.Score.NodeLog,
		Multiplicative:     o.Score.Combine == core.Multiplicative,
		ExcludedRootTables: o.ExcludedRootTables,
		MetadataNodeLimit:  o.MetadataNodeLimit,
		MaxPops:            o.Budget.MaxPops,
		MaxArcsScanned:     o.Budget.MaxArcsScanned,
		MaxBytesFaulted:    o.Budget.MaxBytesFaulted,
		MaxCombosPerVisit:  o.MaxCombosPerVisit,
		RequireAllTerms:    o.RequireAllTerms,
	}
}

// CoreOptions reconstructs the core options the request froze.
func (r *Request) CoreOptions() *core.Options {
	o := core.DefaultOptions()
	o.TopK = r.TopK
	o.HeapSize = r.HeapSize
	o.Score.Lambda = r.Lambda
	o.Score.EdgeLog = r.EdgeLog
	o.Score.NodeLog = r.NodeLog
	if r.Multiplicative {
		o.Score.Combine = core.Multiplicative
	} else {
		o.Score.Combine = core.Additive
	}
	o.ExcludedRootTables = r.ExcludedRootTables
	o.MetadataNodeLimit = r.MetadataNodeLimit
	o.Budget = core.Budget{
		MaxPops:         r.MaxPops,
		MaxArcsScanned:  r.MaxArcsScanned,
		MaxBytesFaulted: r.MaxBytesFaulted,
	}
	o.MaxCombosPerVisit = r.MaxCombosPerVisit
	o.RequireAllTerms = r.RequireAllTerms
	return o
}

// Ref identifies one tuple by its stable (table, rid) identity — the same
// key every canonical tie-break in the engine is defined over, valid
// across partitions and node renumberings.
type Ref struct {
	Table string `json:"t"`
	RID   int64  `json:"r"`
}

// Edge is one parent->child arc of an answer tree, by reference.
type Edge struct {
	From Ref     `json:"from"`
	To   Ref     `json:"to"`
	W    float64 `json:"w"`
}

// Answer is one connection tree in wire form: refs instead of node ids,
// scores verbatim from the partition engine.
type Answer struct {
	Rank      int     `json:"rank"`
	Score     float64 `json:"score"`
	EScore    float64 `json:"escore"`
	NScore    float64 `json:"nscore"`
	Weight    float64 `json:"weight"`
	Root      Ref     `json:"root"`
	Edges     []Edge  `json:"edges,omitempty"`
	TermNodes []Ref   `json:"term_nodes"`
}

// Stats is core.Stats in wire form, plus the routing decision a
// coordinator adds to its merge.
type Stats struct {
	Terms             []string `json:"terms,omitempty"`
	MatchedNodes      []int    `json:"matched_nodes,omitempty"`
	Pops              int      `json:"pops"`
	Generated         int      `json:"generated"`
	Duplicates        int      `json:"duplicates"`
	SingleChildRoots  int      `json:"single_child_roots"`
	ExcludedRoots     int      `json:"excluded_roots"`
	MetadataTruncated bool     `json:"metadata_truncated,omitempty"`
	CombosTruncated   bool     `json:"combos_truncated,omitempty"`
	TermsDropped      int      `json:"terms_dropped,omitempty"`
	ArcsScanned       int      `json:"arcs_scanned"`
	BytesFaulted      int64    `json:"bytes_faulted,omitempty"`
	BudgetExhausted   bool     `json:"budget_exhausted,omitempty"`
	BudgetReason      string   `json:"budget_reason,omitempty"`
	Retired           int      `json:"retired,omitempty"`

	PartitionsTotal     int  `json:"partitions_total,omitempty"`
	PartitionsRouted    int  `json:"partitions_routed,omitempty"`
	PartitionsPruned    int  `json:"partitions_pruned,omitempty"`
	PartitionLocalBound bool `json:"partition_local_bound,omitempty"`
}

// StatsFromCore converts engine statistics to wire form.
func StatsFromCore(st *core.Stats) Stats {
	if st == nil {
		return Stats{}
	}
	return Stats{
		Terms:             st.Terms,
		MatchedNodes:      st.MatchedNodes,
		Pops:              st.Pops,
		Generated:         st.Generated,
		Duplicates:        st.Duplicates,
		SingleChildRoots:  st.SingleChildRoots,
		ExcludedRoots:     st.ExcludedRoots,
		MetadataTruncated: st.MetadataTruncated,
		CombosTruncated:   st.CombosTruncated,
		TermsDropped:      st.TermsDropped,
		ArcsScanned:       st.ArcsScanned,
		BytesFaulted:      st.BytesFaulted,
		BudgetExhausted:   st.BudgetExhausted,
		BudgetReason:      st.BudgetReason,
		Retired:           st.Retired,
	}
}

// Result is one partition's (or the merged cluster's) reply.
type Result struct {
	Answers []Answer `json:"answers,omitempty"`
	Stats   Stats    `json:"stats"`
}

// Meta describes a partition at handshake time: its identity, table set
// (all partitions of one cluster must agree, in order), size, and the
// encoded term-statistics sketch for the routing broker (nil: no sketch,
// the broker always routes to this partition).
type Meta struct {
	Name   string   `json:"name"`
	Tables []string `json:"tables"`
	Nodes  int      `json:"nodes"`
	Arcs   int      `json:"arcs"`
	Sketch []byte   `json:"sketch,omitempty"`
}

// AnswerToWire renders a core answer as wire refs against the graph view
// the search ran on: a partition's, or a single engine's pinned snapshot.
func AnswerToWire(g graph.View, a *core.Answer) Answer {
	w := Answer{
		Rank:   a.Rank,
		Score:  a.Score,
		EScore: a.EScore,
		NScore: a.NScore,
		Weight: a.Weight,
		Root:   refOf(g, a.Root),
	}
	for _, e := range a.Edges {
		w.Edges = append(w.Edges, Edge{From: refOf(g, e.From), To: refOf(g, e.To), W: e.W})
	}
	for _, n := range a.TermNodes {
		w.TermNodes = append(w.TermNodes, refOf(g, n))
	}
	return w
}

func refOf(g graph.View, n graph.NodeID) Ref {
	return Ref{Table: g.TableNameOf(n), RID: int64(g.RIDOf(n))}
}
