package main

import "fmt"

type square struct{ side int }

func (s square) String() string { return fmt.Sprint(s.side) } // dispatched

func (s square) area() int { return s.side * s.side } // tests only

func countdown(n int) int { return countdown(n - 1) } // only itself

func kept() {} // allowlisted

func main() { fmt.Println(square{2}) }

func init() {}
