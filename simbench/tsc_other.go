//go:build !amd64

package main

import "time"

var tickEpoch = time.Now()

// ticks reads the monotonic clock in nanoseconds where no cheaper
// counter is available.
func ticks() int64 { return int64(time.Since(tickEpoch)) }
