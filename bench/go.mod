module github.com/banksdb/banks/bench

go 1.23

require github.com/banksdb/banks v0.0.0

replace github.com/banksdb/banks => ../
