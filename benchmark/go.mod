module rankcube/benchmark

go 1.24

require rankcube v0.0.0

replace rankcube => ../
