# the 7-cycle, for the fold smoke test
0 1
1 2
2 3
3 4
4 5
5 6
6 0
