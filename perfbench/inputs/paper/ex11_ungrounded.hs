% Example 11 of the paper: ungrounded recursion is empty, and
% Algorithm 3 prunes it — safe.
.infinite f/2.
.fd f: 2 -> 1.
r(X) :- f(X, Y), r(Y).
?- r(X).
