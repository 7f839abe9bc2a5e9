module dvp/bench

go 1.22

require dvp v0.0.0

replace dvp => ../
