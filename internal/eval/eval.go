// Package eval reproduces the paper's evaluation methodology (Section 5.3):
// a set of benchmark queries with hand-picked ideal answers, a rank-
// difference error score per parameter setting (missing answers count as
// rank 11, one past the 10 answers examined), scaling so the worst possible
// error is 100, and the λ × edge-log parameter sweep behind Figure 5.
package eval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/banksdb/banks/internal/core"
	"github.com/banksdb/banks/internal/graph"
)

// IdealAnswer is one hand-picked ideal answer: a human-readable description
// plus a predicate deciding whether an emitted answer is that ideal.
// Following the paper, answers are compared as trees ("we considered
// answers to be the same if their trees were the same, even if the roots
// were different"), so predicates usually test node membership.
type IdealAnswer struct {
	Desc  string
	Match func(a *core.Answer, g graph.View) bool
}

// Query is one evaluation query with its ideal answers in ideal-rank order.
type Query struct {
	Name   string
	Terms  []string
	Ideals []IdealAnswer
}

// MissingRank is the rank assigned to an ideal answer that does not appear
// among the examined answers: one more than the number examined (§5.3).
const MissingRank = 11

// AnswersExamined is how many answers each query run examines (§5.3:
// "stopping at 10 answers").
const AnswersExamined = 10

// QueryError runs q at the given options and returns the raw error (sum of
// |ideal rank − actual rank|), the worst possible error for the query, and
// the actual ranks (MissingRank for absent ideals).
func QueryError(s *core.Searcher, q Query, opts *core.Options) (raw, worst float64, ranks []int, err error) {
	o := *opts
	o.TopK = AnswersExamined
	answers, _, err := s.Query(context.Background(), core.Request{Terms: q.Terms}, &o, nil)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("eval: query %s: %w", q.Name, err)
	}
	used := make([]bool, len(answers))
	ranks = make([]int, len(q.Ideals))
	for i, ideal := range q.Ideals {
		idealRank := i + 1
		actual := MissingRank
		for j, a := range answers {
			if used[j] {
				continue
			}
			if ideal.Match(a, s.Graph()) {
				actual = j + 1
				used[j] = true
				break
			}
		}
		ranks[i] = actual
		raw += math.Abs(float64(idealRank - actual))
		worst += math.Abs(float64(idealRank - MissingRank))
	}
	return raw, worst, ranks, nil
}

// ScaledError runs all queries at one parameter setting and returns the
// error scaled so the worst possible score is 100.
func ScaledError(s *core.Searcher, queries []Query, opts *core.Options) (float64, error) {
	var raw, worst float64
	for _, q := range queries {
		r, w, _, err := QueryError(s, q, opts)
		if err != nil {
			return 0, err
		}
		raw += r
		worst += w
	}
	if worst == 0 {
		return 0, fmt.Errorf("eval: no ideal answers defined")
	}
	return 100 * raw / worst, nil
}

// SweepPoint is one cell of the Figure 5 surface.
type SweepPoint struct {
	Lambda  float64
	EdgeLog bool
	NodeLog bool
	Mult    bool
	Scaled  float64
}

// Lambdas is the λ grid of Figure 5.
var Lambdas = []float64{0, 0.2, 0.5, 0.8, 1.0}

// SweepFigure5 computes the Figure 5 surface: scaled error against λ and
// edge log-scaling (node log off, additive combination, exactly the axes
// of the paper's figure).
func SweepFigure5(s *core.Searcher, queries []Query, base *core.Options) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, edgeLog := range []bool{false, true} {
		for _, lambda := range Lambdas {
			o := *base
			o.Score = core.ScoreOptions{Lambda: lambda, EdgeLog: edgeLog}
			scaled, err := ScaledError(s, queries, &o)
			if err != nil {
				return nil, err
			}
			out = append(out, SweepPoint{Lambda: lambda, EdgeLog: edgeLog, Scaled: scaled})
		}
	}
	return out, nil
}

// SweepFull extends the sweep over node log-scaling and combination mode —
// the remaining §2.3 parameters the paper reports bullet-point findings
// for. The three log+multiplicative combinations the paper discarded are
// included for completeness but flagged by Discarded.
func SweepFull(s *core.Searcher, queries []Query, base *core.Options) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, mult := range []bool{false, true} {
		for _, nodeLog := range []bool{false, true} {
			for _, edgeLog := range []bool{false, true} {
				for _, lambda := range Lambdas {
					o := *base
					o.Score = core.ScoreOptions{Lambda: lambda, EdgeLog: edgeLog, NodeLog: nodeLog}
					if mult {
						o.Score.Combine = core.Multiplicative
					}
					scaled, err := ScaledError(s, queries, &o)
					if err != nil {
						return nil, err
					}
					out = append(out, SweepPoint{
						Lambda: lambda, EdgeLog: edgeLog, NodeLog: nodeLog,
						Mult: mult, Scaled: scaled,
					})
				}
			}
		}
	}
	return out, nil
}

// Discarded reports whether the paper excluded this combination from its
// comparison (log scaling combined with multiplication).
func (p SweepPoint) Discarded() bool {
	return p.Mult && (p.EdgeLog || p.NodeLog)
}

// FormatFigure5 renders sweep points as the Figure 5 grid: rows are λ,
// columns are EdgeLog ∈ {0, 1}.
func FormatFigure5(points []SweepPoint) string {
	cell := make(map[[2]int]float64)
	for _, p := range points {
		e := 0
		if p.EdgeLog {
			e = 1
		}
		li := -1
		for i, l := range Lambdas {
			if l == p.Lambda {
				li = i
			}
		}
		if li >= 0 && !p.NodeLog && !p.Mult {
			cell[[2]int{li, e}] = p.Scaled
		}
	}
	var b strings.Builder
	b.WriteString("Figure 5: scaled error vs (lambda, EdgeLog)\n")
	b.WriteString("lambda   EdgeLog=0   EdgeLog=1\n")
	for i, l := range Lambdas {
		fmt.Fprintf(&b, "%-7.1f  %-10.1f  %-10.1f\n", l, cell[[2]int{i, 0}], cell[[2]int{i, 1}])
	}
	return b.String()
}

// Best returns the sweep point with the lowest error among the
// non-discarded combinations.
func Best(points []SweepPoint) SweepPoint {
	kept := make([]SweepPoint, 0, len(points))
	for _, p := range points {
		if !p.Discarded() {
			kept = append(kept, p)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Scaled < kept[j].Scaled })
	if len(kept) == 0 {
		return SweepPoint{}
	}
	return kept[0]
}
