package main

// ticks reads the CPU's time-stamp counter: a clock read cheap enough
// to put around calls of a few nanoseconds.
func ticks() int64
