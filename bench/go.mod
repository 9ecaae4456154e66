module dqo/bench

go 1.22

require dqo v0.0.0

replace dqo => ../
