package main

import "fmt"

type square struct{ side int }

func (s square) String() string { return fmt.Sprint(s.side) } // dispatched

func (s square) area() int { return s.side * s.side } // tests only

// getter declares Get, but only for values whose Get returns a string.
type getter interface{ Get() string }

type label struct{ s string }

func (l label) Get() string { return l.s } // implements getter: dispatch may reach it

type box struct{ v int }

func (b *box) Get() int { return b.v } // tests only: no interface box implements declares it

func countdown(n int) int { return countdown(n - 1) } // only itself

func kept() {} // allowlisted

func main() { fmt.Println(square{2}) }

func init() {}
