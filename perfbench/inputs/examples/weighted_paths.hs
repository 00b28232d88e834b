% Recursion through arithmetic: path costs over a weighted DAG.
edge(a, b, 3).
edge(b, c, 4).
edge(a, c, 9).
edge(c, d, 1).

dist(X, Y, D) :- edge(X, Y, D).
dist(X, Y, D) :- edge(X, Z, D1), dist(Z, Y, D2), plus(D1, D2, D).

% Safe membership test; the all-free variant would be refused.
?- dist(a, c, 7).
