//go:build !linux

package main

// filesystemOf is only implemented on Linux.
func filesystemOf(string) string { return "unknown" }
