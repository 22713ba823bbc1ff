package banks

import (
	"context"
	"errors"
	"iter"
)

// QueryIter is QueryStream as a Go 1.23 range-over-func sequence: it
// yields each answer the moment the output heap emits it, paired with a
// nil error, so callers can range over a running search and break early
// to cancel it:
//
//	for a, err := range sys.QueryIter(ctx, banks.Query{Text: "sunita soumen"}) {
//	    if err != nil { ... }
//	    fmt.Println(a.Format())
//	    if enough { break } // cancels the search cleanly
//	}
//
// A search failure (bad query, canceled context) is
// delivered as a final (nil, err) pair; breaking out of the loop is not
// an error and yields nothing further. The search runs synchronously
// inside the loop — no goroutine to leak, nothing to close.
func (s *System) QueryIter(ctx context.Context, q Query) iter.Seq2[*Answer, error] {
	return func(yield func(*Answer, error) bool) {
		_, err := s.QueryStream(ctx, q, func(a *Answer) bool {
			return yield(a, nil)
		})
		if err != nil && !errors.Is(err, ErrStopped) {
			yield(nil, err)
		}
	}
}
