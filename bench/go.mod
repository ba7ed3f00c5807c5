module anonmutex/bench

go 1.23

require anonmutex v0.0.0

replace anonmutex => ../
