/* The poller's one system call: poll(2) over an array of descriptors.

   [volcano_sched_poll fds wanted count timeout_ms got] copies the first
   [count] descriptors into a C array, polls them with the runtime lock
   released, and writes one readiness word per descriptor into [got].
   [wanted] and [got] use the same bits, so the OCaml side names no
   platform constant:

     1  readable (asked) / readable (reported)
     2  writable (asked) / writable (reported)
     4  error, hang-up or invalid descriptor (reported only; poll
        watches for it unasked)

   An interrupted poll reports nothing ready; any other failure raises
   [Unix.Unix_error]. */

#define CAML_NAME_SPACE
#include <errno.h>
#include <poll.h>
#include <stdlib.h>

#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#define WANT_READ 1
#define WANT_WRITE 2
#define GOT_ERROR 4

CAMLprim value volcano_sched_poll(value fds, value wanted, value count,
                                  value timeout_ms, value got)
{
  CAMLparam5(fds, wanted, count, timeout_ms, got);
  long n = Long_val(count);
  struct pollfd *set = malloc((n > 0 ? n : 1) * sizeof *set);
  if (set == NULL) caml_raise_out_of_memory();
  for (long i = 0; i < n; i++) {
    long w = Long_val(Field(wanted, i));
    set[i].fd = Int_val(Field(fds, i));
    set[i].events =
        ((w & WANT_READ) ? POLLIN : 0) | ((w & WANT_WRITE) ? POLLOUT : 0);
    set[i].revents = 0;
  }
  caml_enter_blocking_section();
  int rc = poll(set, n, Int_val(timeout_ms));
  int err = errno;
  caml_leave_blocking_section();
  if (rc < 0 && err != EINTR) {
    free(set);
    caml_unix_error(err, "poll", Nothing);
  }
  for (long i = 0; i < n; i++) {
    short r = rc > 0 ? set[i].revents : 0;
    long bits = ((r & POLLIN) ? WANT_READ : 0)
                | ((r & POLLOUT) ? WANT_WRITE : 0)
                | ((r & (POLLERR | POLLHUP | POLLNVAL)) ? GOT_ERROR : 0);
    Store_field(got, i, Val_long(bits));
  }
  free(set);
  CAMLreturn(Val_unit);
}
