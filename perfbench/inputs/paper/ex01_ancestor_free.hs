% Example 1 of the paper with the level counter left free: J grows
% without bound along the successor chain, so the query is unsafe.
.infinite successor/2.
.fd successor: 1 -> 2.
.fd successor: 2 -> 1.
parent(sem, abel).
ancestor(X, Y, 1) :- parent(X, Y).
ancestor(X, Y, J) :- parent(X, Z), ancestor(Z, Y, I), successor(I, J).
?- ancestor(sem, Y, J).
