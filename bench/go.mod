module mobiceal/bench

go 1.24

require mobiceal v0.0.0

replace mobiceal => ../
