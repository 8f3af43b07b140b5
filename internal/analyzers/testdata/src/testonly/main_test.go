package main

import "testing"

func TestArea(t *testing.T) {
	kept()
	_ = square{2}.area()
	_ = label{"x"}.Get()
	_ = (&box{1}).Get()
}
