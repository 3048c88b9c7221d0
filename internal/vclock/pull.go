//go:build go1.23

package vclock

import "iter"

// coroutine makes body a coroutine and returns the function that resumes
// it: each call runs body until body calls yield or returns. The caller's
// thread passes to body and back by a direct switch, not through the Go
// scheduler. A runtime.Goexit in body is re-raised in the goroutine that
// resumed it.
func coroutine(body func(yield func(struct{}) bool)) (resume func() (struct{}, bool)) {
	resume, _ = iter.Pull(body)
	return resume
}
