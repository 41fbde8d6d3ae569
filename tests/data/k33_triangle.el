# K3,3 (sides 0 1 2 and 3 4 5) with a triangle 0 6 7 hung on vertex 0, for
# the fold smoke test: no 5-cycle, and the exact odd-walk check cannot say so
0 3
0 4
0 5
1 3
1 4
1 5
2 3
2 4
2 5
0 6
6 7
7 0
