// Package ctxbgrepro is the ctxbg corpus: manufactured root contexts
// in an internal package, including the distilled shape of the CLIs'
// shared -timeout helper this analyzer exists to catch, plus annotated
// roots that must stay quiet.
package ctxbgrepro

import (
	"context"
	"time"
)

// withTimeout is the distilled pre-fix shared -timeout helper: the
// CLIs' -timeout plumbing manufactured its own root, detaching every
// run from signal handling.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d) // want `context\.Background\(\) in internal package`
	}
	return context.WithCancel(context.TODO()) // want `context\.TODO\(\) in internal package`
}

// threaded is the fixed shape: the caller's context flows through.
func threaded(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// newServerBase is a legitimate root — a daemon's lifetime context,
// cancelled by Close — and carries the annotation that keeps it quiet.
func newServerBase() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background()) //lint:allow ctxbg server lifetime base context, cancelled by Close
}

//lint:allow ctxbg compatibility wrapper for pre-ctx callers
func compatWrapper() context.Context {
	return context.Background() // allowed: the func doc annotation covers the whole body
}

// aliased catches the import-alias spelling too.
func aliased() context.Context {
	return bgctx()
}

func bgctx() context.Context {
	c := context.Background // want `context\.Background\(\) in internal package`
	_ = c
	return c()
}
