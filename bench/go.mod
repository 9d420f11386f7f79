module centurion/bench

go 1.24

require centurion v0.0.0

replace centurion => ../
