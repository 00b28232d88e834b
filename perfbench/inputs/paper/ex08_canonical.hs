% Example 8 of the paper: the original program is safe, but its
% canonical abstraction is not (Theorem 2 is only sufficient), so the
% decision procedure answers unsafe.
.infinite integer/1.
r(X) :- p(Y), q(Y), integer(X).
p([1]).
q([1,1]).
?- r(X).
