package main

import "testing"

func TestArea(t *testing.T) { kept(); _ = square{2}.area() }
